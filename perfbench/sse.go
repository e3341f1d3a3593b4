package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"acr/internal/fleet"
)

// jobEvent is one acrd progress event, as GET /api/v1/jobs/{id}/progress
// streams it.
type jobEvent struct {
	ID     int              `json:"id"`
	State  string           `json:"state"`
	Result *fleet.JobResult `json:"result,omitempty"`
}

func (e jobEvent) terminal() bool { return e.State == "completed" || e.State == "failed" }

// maxEvent bounds one SSE line: a terminal event carries the job's
// statistics, including per-round duration arrays.
const maxEvent = 16 << 20

// readTerminal reads server-sent events from r and returns the first
// terminal one (completed or failed) as soon as it arrives, without
// waiting for the stream to end. The daemon emits it the moment the job's
// Done channel closes, so its arrival time is the job's completion time
// as a client sees it.
func readTerminal(r io.Reader) (jobEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxEvent)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev jobEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return ev, fmt.Errorf("sse event: %w", err)
		}
		if ev.terminal() {
			return ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return jobEvent{}, err
	}
	return jobEvent{}, io.ErrUnexpectedEOF
}
