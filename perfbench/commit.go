package main

import (
	"fmt"
	"time"

	"acr/internal/core"
	"acr/internal/runtime"
)

// commitSpec is one back-to-back checkpoint-round workload.
type commitSpec struct {
	sh   shape
	cmp  core.Comparison
	link bool // hardened 1 ms exchange shipping every checkpoint (pipelined rounds)
}

// commit-full: every round re-packs, re-hashes and byte-compares all
// 8 MiB (2 replicas × 2 nodes × 2 tasks × 1 MiB), mem tier only.
func runCommitFull(rc runConfig) (*outcome, error) {
	return runCommit(rc, commitSpec{
		sh:  shape{nodes: 2, tasks: 2, floats: 1 << 17, hot: 1 << 17},
		cmp: core.FullCompare,
	})
}

// commit-dirty-link: 10% of each 256 KiB task is rewritten per iteration;
// rounds ship deltas over a 1 ms link. It has no durable tier: with
// FlushEvery 1 every round spawned a writer for 4 MiB, the writers piled up
// whenever they fell behind, and throughput swung between 39 and 112
// commits/s over ten runs. The disk writer is measured on restart and
// acrd-jobs instead.
func runCommitDirtyLink(rc runConfig) (*outcome, error) {
	return runCommit(rc, commitSpec{
		sh:   shape{nodes: 4, tasks: 2, floats: 1 << 15, hot: (1 << 15) / 10},
		cmp:  core.ChecksumCompare,
		link: true,
	})
}

func (s commitSpec) config(seed int64) core.Config {
	cfg := core.Config{Comparison: s.cmp}
	if s.link {
		cfg.Exchange = &core.ExchangeConfig{Latency: time.Millisecond, Seed: seed, ShipCheckpoints: true}
	}
	return cfg
}

// roundWindow is one closed loop of back-to-back rounds.
type roundWindow struct {
	lat       []time.Duration
	wall, cpu time.Duration
	stallNs   int64
}

func (w roundWindow) perSec() float64 { return float64(len(w.lat)) / w.wall.Seconds() }

// roundWindow drives back-to-back rounds. Its CPU time is summed over the
// rounds only: between a commit and the load loop's next PredictFailure
// the application runs on, for as long as the scheduler takes to run the
// loop again, and that work is not the round's.
func (l *live) roundWindow(d time.Duration) (roundWindow, error) {
	var w roundWindow
	s0 := l.tr.stallNs.Load()
	t0 := time.Now()
	for inWindow(time.Since(t0), d, len(w.lat)) {
		c0 := cpuTime()
		lat, sdc, err := l.round()
		w.cpu += cpuTime() - c0
		if err != nil {
			return w, err
		}
		if sdc {
			return w, fmt.Errorf("spurious SDC detected in a fault-free round")
		}
		w.lat = append(w.lat, lat)
	}
	w.wall = time.Since(t0)
	w.stallNs = l.tr.stallNs.Load() - s0
	return w, nil
}

func runCommit(rc runConfig, spec commitSpec) (*outcome, error) {
	o := &outcome{traced: rc.trace}
	tr := newTracer()
	mk := func(int) (*live, error) { return startLive(spec.config(rc.seed), spec.sh, rc.seed, tr, "") }
	l, setups, err := setUp(mk, func(l *live) { _, _ = l.stop() })
	if err != nil {
		return o, err
	}

	// An untraced run measures its whole window untraced. A traced run
	// measures the first half untraced and the second traced; the layers
	// come from the traced half, and the two halves give the overhead.
	var base, w roundWindow
	var packNs int64
	if rc.trace {
		base, err = l.roundWindow(rc.window() / 2)
		if err == nil {
			tr.packNs.Store(0)
			tr.on.Store(true)
			w, err = l.roundWindow(rc.window() / 2)
			tr.on.Store(false)
			packNs = tr.packNs.Load()
		}
	} else {
		w, err = l.roundWindow(rc.window())
		base = w
	}
	o.attempted = len(w.lat)
	if rc.trace {
		o.attempted += len(base.lat)
	}
	var detected int
	var undetected []runtime.Addr
	if err != nil {
		o.attempted++ // the round that failed
	} else {
		o.attempted += flips + 1
		detected, undetected, err = l.injectFlips()
	}
	stats, stopErr := l.stop()
	if err != nil {
		o.failed++
		return o, fmt.Errorf("%w: %v", errIncorrect, err)
	}
	if stopErr != nil {
		return o, fmt.Errorf("%w: run: %v", errIncorrect, stopErr)
	}
	orc, err := checkMachine(l.ctrl.Machine(), spec.sh, rc.seed, undetected)
	if err != nil {
		return o, fmt.Errorf("%w: %v", errIncorrect, err)
	}
	o.notef("oracle: %d task states match the closed form; %d single-bit SDC escape(s) attributed to %d undetected flip(s)",
		orc.tasks, orc.escapes, len(undetected))

	// End to end, from the untraced window.
	if err := o.setupMetric(setups); err != nil {
		return o, err
	}
	o.e2e("commits_per_s", "", "1/s", base.perSec(), len(base.lat))
	lat := ms(base.lat)
	if err := o.pct("round_ms_p50", "", lat, 0.5); err != nil {
		return o, err
	}
	if err := o.pct("round_ms_p90", "", lat, 0.9); err != nil {
		return o, err
	}
	tasks := 2 * spec.sh.nodes * spec.sh.tasks
	o.e2e("stall_ms_per_round", "", "ms", float64(base.stallNs)/1e6/float64(tasks*len(base.lat)), len(base.lat))
	o.e2e("cpu_ms_per_round", "cpu_ms_per_op", "ms", float64(base.cpu)/1e6/float64(len(base.lat)), len(base.lat))
	o.rssMetric()
	o.e2e("failed_frac", "", "fraction", ratio(float64(o.failed), float64(o.attempted)), o.attempted)
	o.e2e("sdc_detected_frac", "", "fraction", float64(detected)/flips, flips)
	if !rc.trace {
		return o, nil
	}

	// Per layer, from the traced half and the controller's counters.
	rounds := float64(stats.Checkpoints)
	o.layer("trace.overhead_pct", "%", 100*(base.perSec()-w.perSec())/base.perSec(), len(w.lat))
	o.statsLayers(stats, rounds)
	o.layer("core.sdc_detected_frac", "fraction", float64(detected)/flips, flips)
	o.layer("ckptstore.disk_puts_per_round", "count", 0, 0)
	o.jobLayers(nil)
	packMs := float64(packNs) / 1e6 / float64(len(w.lat))
	o.layer("pup.pack_ms_per_round", "ms", packMs, len(w.lat))
	rp, err := replay(spec.sh, spec.cmp, rc.seed)
	if err != nil {
		return o, err
	}
	rp.record(o)
	o.attribute(spec, stats, w, packMs, rp)
	return o, nil
}
