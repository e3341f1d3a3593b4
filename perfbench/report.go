package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	stdruntime "runtime"
	"sort"

	"acr/internal/buildinfo"
)

// errIncorrect marks a run whose outputs failed a correctness check (an
// unattributed oracle mismatch, a failed acrd verify, an errored or
// timed-out operation). Such a run still prints its result line, with
// "correct": false, and exits non-zero.
var errIncorrect = errors.New("correctness check failed")

// contractMetric is one metric BENCHMARK.json declares. Every workload
// reports every one of them, so the names are workload-neutral; the
// workload-specific name each value comes from is printed beside it.
type contractMetric struct{ name, unit string }

// endToEnd are the gated end-to-end metrics (BENCHMARK.json
// "end_to_end"); printed with --trace 0. They are the costs a user pays
// that do not move with the host's CPU steal: process CPU time and memory.
// Wall-clock throughput and latency are printed beside them, not gated:
// on the 2-vCPU VM that enforces the gate, steal swung between 0 and 47%
// within an hour and moved wall figures up to 2.5×; CPU time does not
// count stolen time.
var endToEnd = []contractMetric{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the single-layer metrics (BENCHMARK.json "per_layer");
// printed with --trace 1. The replayed rates and times are measured on
// every workload's own state shape; the counts are zero where a workload
// does not exercise the layer.
var perLayer = []contractMetric{
	{"pup.pack_full_mb_per_s", "MB/s"},
	{"pup.pack_patch_mb_per_s", "MB/s"},
	{"pup.unpack_mb_per_s", "MB/s"},
	{"checksum.fletcher64_mb_per_s_1w", "MB/s"},
	{"checksum.fletcher64_mb_per_s_nw", "MB/s"},
	{"runtime.capture_replica_ms", "ms"},
	{"runtime.restart_replica_ms", "ms"},
	{"ckptstore.mem_put_ms", "ms"},
	{"ckptstore.mem_compare_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"runtime.pack_fast_path_frac", "fraction"},
	{"runtime.dirty_ratio", "fraction"},
	{"runtime.chunks_reused_per_round", "count"},
	{"ckptstore.pool_hit_ratio", "fraction"},
	{"ckptstore.hot_bytes_per_round", "bytes"},
	{"ckptstore.disk_puts_per_round", "count"},
	{"core.exchange_frames_per_round", "count"},
	{"core.exchange_retries_per_round", "count"},
	{"core.exchange_chunk_reuse_ratio", "fraction"},
	{"core.rounds_aborted", "count"},
	{"core.sdc_detected_frac", "fraction"},
	{"core.checkpoints_per_job", "count"},
	{"acrd.journal_records_per_job", "count"},
	{"acrd.journal_bytes_per_job", "bytes"},
}

// metric is one reported figure. name is what the workload measured
// (round_ms_p50, restore_ms_p50, ...); key, when set, is the contract name
// the value is reported under in the result line.
type metric struct {
	Name  string  `json:"name"`
	Key   string  `json:"key,omitempty"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Layer bool    `json:"layer,omitempty"`
}

func (m metric) String() string {
	kind := "metric"
	if m.Layer {
		kind = "layer"
	}
	s := fmt.Sprintf("%s %-34s %14.6g %-8s n=%d", kind, m.Name, m.Value, m.Unit, m.N)
	if m.Key != "" && m.Key != m.Name {
		s += "  -> " + m.Key
	}
	return s
}

// outcome is one workload run's accounting.
type outcome struct {
	attempted, failed int
	metrics           []metric
	lines             []string // human-readable notes printed before the metrics
	// traced runs measure the end-to-end metrics over half the window and
	// only print them, so a percentile with too thin a tail is noted there
	// instead of failing the run.
	traced bool
}

// e2e records an end-to-end metric; key is its contract name or "".
func (o *outcome) e2e(name, key, unit string, v float64, n int) {
	o.metrics = append(o.metrics, metric{Name: name, Key: key, Value: v, Unit: unit, N: n})
}

// layer records a per-layer metric. Contract per-layer names are reported
// under themselves; the rest are printed only.
func (o *outcome) layer(name, unit string, v float64, n int) {
	m := metric{Name: name, Value: v, Unit: unit, N: n, Layer: true}
	for _, c := range perLayer {
		if c.name == name {
			m.Key = name
		}
	}
	o.metrics = append(o.metrics, m)
}

// pct records the p-quantile of xs (milliseconds) as an end-to-end metric.
func (o *outcome) pct(name, key string, xs []float64, p float64) error {
	v, n, err := percentile(xs, p)
	if err != nil && o.traced {
		o.notef("%s: not reported: %v", name, err)
		return nil
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	o.e2e(name, key, "ms", v, n)
	return nil
}

func (o *outcome) notef(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// checkContract fails a run that would print a result line missing a
// declared metric, or one with a unit other than the declared one.
func (o *outcome) checkContract(traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	got := o.contractValues(traced)
	for _, c := range want {
		m, ok := got[c.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", c.name)
		}
		if m.Unit != c.unit {
			return fmt.Errorf("metric %s has unit %s, declared %s", c.name, m.Unit, c.unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", c.name, m.Value)
		}
	}
	return nil
}

func (o *outcome) contractValues(traced bool) map[string]metric {
	got := make(map[string]metric)
	for _, m := range o.metrics {
		if m.Key != "" && m.Layer == traced {
			got[m.Key] = m
		}
	}
	return got
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

// final is the result line.
func (o *outcome) final(correct, traced bool) result {
	r := result{Correct: correct, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]resultValue)}
	for k, m := range o.contractValues(traced) {
		r.Metrics[k] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	return r
}

// stamp identifies the conditions a report was measured under.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func newStamp(workload string, seed int64, trace bool, procs int) stamp {
	commit := buildinfo.Get("perfbench").VCSRevision
	if commit == "" {
		commit = "unknown"
	}
	return stamp{
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		GOMAXPROCS: procs,
		NumCPU:     stdruntime.NumCPU(),
		GoVersion:  stdruntime.Version(),
		Commit:     commit,
	}
}

// report is the --report file: the stamp and every metric measured.
type report struct {
	Stamp   stamp    `json:"stamp"`
	Metrics []metric `json:"metrics"`
}

func writeReport(path string, st stamp, o *outcome) error {
	blob, err := json.MarshalIndent(report{Stamp: st, Metrics: o.metrics}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}

func readReport(path string) (report, error) {
	var r report
	blob, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(blob, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareReports prints each metric of two reports side by side. Reports
// measured under different GOMAXPROCS or CPU counts, or on different
// workloads, are refused: their numbers are not comparable, and passing
// such a comparison would hide exactly the difference that matters.
func compareReports(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "perfbench: --compare needs two report files")
		return 2
	}
	a, err := readReport(paths[0])
	if err == nil {
		var b report
		b, err = readReport(paths[1])
		if err == nil {
			err = comparable(a.Stamp, b.Stamp)
		}
		if err == nil {
			printComparison(stdout, a, b)
			return 0
		}
	}
	fmt.Fprintf(stderr, "perfbench: compare: %v\n", err)
	return 2
}

func comparable(a, b stamp) error {
	switch {
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Errorf("refusing: GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.NumCPU != b.NumCPU:
		return fmt.Errorf("refusing: NumCPU %d vs %d", a.NumCPU, b.NumCPU)
	case a.Workload != b.Workload:
		return fmt.Errorf("refusing: workload %s vs %s", a.Workload, b.Workload)
	}
	return nil
}

func printComparison(w io.Writer, a, b report) {
	bm := make(map[string]metric)
	for _, m := range b.Metrics {
		bm[m.Name] = m
	}
	names := make([]string, 0, len(a.Metrics))
	am := make(map[string]metric)
	for _, m := range a.Metrics {
		am[m.Name] = m
		names = append(names, m.Name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s (%s, seed %d) vs %s (seed %d), GOMAXPROCS %d\n",
		a.Stamp.Workload, short(a.Stamp.Commit), a.Stamp.Seed, short(b.Stamp.Commit), b.Stamp.Seed, a.Stamp.GOMAXPROCS)
	for _, name := range names {
		x, y := am[name], bm[name]
		if _, ok := bm[name]; !ok {
			fmt.Fprintf(w, "%-34s %14.6g %-8s (missing in second)\n", name, x.Value, x.Unit)
			continue
		}
		delta := ""
		if x.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(y.Value-x.Value)/math.Abs(x.Value))
		}
		fmt.Fprintf(w, "%-34s %14.6g %14.6g %-8s %s\n", name, x.Value, y.Value, x.Unit, delta)
	}
}

func short(commit string) string {
	if len(commit) > 12 {
		return commit[:12]
	}
	return commit
}
