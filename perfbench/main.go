// Command perfbench is the repository benchmark: it runs one closed-loop
// workload against the checkpoint/restart system, checks the program's
// final state, and prints every metric with its unit and sample count.
//
//	python3 perfbench/run.py --workload commit-full --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. NOTES.md explains
// the workloads and what each metric measures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"time"
)

// processStart anchors setup_s: the first set-up of a run includes the
// process's own start-up.
var processStart = time.Now()

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	tmp     string // temp directory for durable tiers and daemon data
}

// window is the measured closed-loop duration. A traced run splits it: the
// first half untraced (the base of trace.overhead_pct), the second traced.
func (c runConfig) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

type workload struct {
	why string
	run func(runConfig) (*outcome, error)
}

// workloads are the benchmark's closed loops; each reason is the one
// BENCHMARK.json gives.
var workloads = map[string]workload{
	"commit-full":       {"every round re-packs, re-hashes and byte-compares 8 MiB of fully rewritten state: pup, checksum and mem compare carry it", runCommitFull},
	"commit-dirty-link": {"10% hot state shipped as deltas over a 1 ms link: patch capture, chunk-sum reuse, delta shipping and pipeline overlap carry it", runCommitDirtyLink},
	"restart":           {"kill, buddy recovery and restore of a flushed epoch from disk per cycle: detection, tier 0/1 restore, disk reads and unpack", runRestart},
	"acrd-jobs":         {"ring jobs through the daemon's HTTP API: handlers, the fsynced journal, fleet admission and the flush tracker do the work", runAcrdJobs},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: commit-full, commit-dirty-link, restart or acrd-jobs")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured closed-loop duration in seconds")
	traceFlag := fs.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	reportPath := fs.String("report", "", "also write the full report (stamp and every metric) as JSON to this file")
	compare := fs.Bool("compare", false, "compare two report files given as arguments; refuses reports from different GOMAXPROCS or CPU counts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareReports(fs.Args(), stdout, stderr)
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of commit-full, commit-dirty-link, restart, acrd-jobs), --seconds > 0 and --trace 0|1\n")
		return 2
	}

	procs := stdruntime.NumCPU()
	stdruntime.GOMAXPROCS(procs)
	st := newStamp(*name, *seed, *traceFlag == 1, procs)
	blob, _ := json.Marshal(st)
	fmt.Fprintf(stdout, "stamp %s\n", blob)
	fmt.Fprintf(stdout, "workload %s: %s\n", *name, w.why)

	tmp, err := os.MkdirTemp(tempRoot(), "perfbench-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: temp dir: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	out, err := w.run(runConfig{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, tmp: tmp})
	if out == nil {
		out = &outcome{}
	}
	for _, line := range out.lines {
		fmt.Fprintln(stdout, line)
	}
	for _, m := range out.metrics {
		fmt.Fprintln(stdout, m)
	}
	if err == nil {
		err = out.checkContract(*traceFlag == 1)
	}
	if *reportPath != "" {
		if werr := writeReport(*reportPath, st, out); werr != nil && err == nil {
			err = werr
		}
	}
	final := out.final(err == nil, *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		if !errors.Is(err, errIncorrect) {
			return 1
		}
	}
	blob, _ = json.Marshal(final)
	fmt.Fprintf(stdout, "%s\n", blob)
	if err != nil {
		return 1
	}
	return 0
}

// tempRoot keeps every file the benchmark writes inside the checkout it
// runs from: the build directory when it exists, else the system default.
func tempRoot() string {
	dir := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	return dir
}
