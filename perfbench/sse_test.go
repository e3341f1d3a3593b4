package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestReadTerminalReturnsOnTerminalEvent(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl := w.(http.Flusher)
		w.Header().Set("Content-Type", "text/event-stream")
		for _, state := range []string{"queued", "running"} {
			fmt.Fprintf(w, "data: {\"id\":4,\"state\":%q}\n\n", state)
			fl.Flush()
		}
		fmt.Fprint(w, "data: {\"id\":4,\"state\":\"completed\",\"result\":{\"name\":\"j\",\"completed\":true,\"queue_wait_ns\":1500}}\n\n")
		fl.Flush()
		// Hold the stream open: the reader must not wait for its end.
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	type got struct {
		ev  jobEvent
		err error
	}
	done := make(chan got, 1)
	go func() {
		ev, err := readTerminal(resp.Body)
		done <- got{ev, err}
	}()
	select {
	case g := <-done:
		if g.err != nil {
			t.Fatal(g.err)
		}
		if g.ev.State != "completed" || g.ev.ID != 4 || g.ev.Result == nil || g.ev.Result.QueueWait != 1500 {
			t.Errorf("terminal event = %+v", g.ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("readTerminal waited for the stream to end")
	}
}

func TestReadTerminalReportsTruncatedStream(t *testing.T) {
	if _, err := readTerminal(strings.NewReader("data: {\"state\":\"running\"}\n\n")); err == nil {
		t.Error("stream that ended before a terminal event was accepted")
	}
	if _, err := readTerminal(strings.NewReader("data: {not json\n\n")); err == nil {
		t.Error("malformed event accepted")
	}
}
