package main

import (
	"errors"
	"fmt"
	stdruntime "runtime"
	"sync/atomic"
	"time"

	"acr/internal/ckptstore"
	"acr/internal/core"
	"acr/internal/runtime"
)

// opTimeout bounds one driven operation (a round, a recovery, a job); an
// operation that exceeds it counts as failed.
const opTimeout = 10 * time.Second

// A measured window lasts its nominal duration and, when that produced
// fewer than minOps operations (a slow host, a slow workload), keeps going
// up to maxStretch times as long, so its p90 has 10 samples beyond it.
const (
	minOps     = 100
	maxStretch = 3
)

// inWindow reports whether a window of nominal length d that has run for
// el and completed ops operations should start another.
func inWindow(el, d time.Duration, ops int) bool {
	return el < d || (ops < minOps && el < maxStretch*d)
}

// setupReps is how many times a run sets its system up; setup_s is the
// median, which then has 10 samples on either side of it.
const setupReps = 21

// live is one running controller, driven from outside through its
// exported control surface: PredictFailure starts each round
// (CheckpointInterval is 0, so no timer ever does), Progress reports when
// it committed.
type live struct {
	ctrl  *core.Controller
	tr    *tracer
	sh    shape
	disk  *ckptstore.Disk // durable tier, nil when the workload has none
	timed *timedStore     // the recorder wrapping disk

	exited atomic.Bool
	done   chan runEnd
}

type runEnd struct {
	stats core.Stats
	err   error
}

// startLive builds the controller, starts Run, and drives the first
// committed epoch. diskDir, when set, becomes the durable flush tier,
// wrapped by the timing recorder.
func startLive(cfg core.Config, sh shape, seed int64, tr *tracer, diskDir string) (*live, error) {
	l := &live{tr: tr, sh: sh, done: make(chan runEnd, 1)}
	cfg.NodesPerReplica, cfg.TasksPerNode = sh.nodes, sh.tasks
	cfg.Factory = sh.factory(seed, tr)
	if diskDir != "" {
		d, err := ckptstore.NewDisk(diskDir, nil)
		if err != nil {
			return nil, err
		}
		l.disk = d
		cfg.FlushStore, l.timed = wrapTimed(d, tr)
	}
	ctrl, err := core.New(cfg)
	if err != nil {
		l.closeDisk()
		return nil, err
	}
	l.ctrl = ctrl
	go func() {
		st, err := ctrl.Run()
		l.exited.Store(true)
		l.done <- runEnd{st, err}
	}()
	if _, _, err := l.round(); err != nil {
		_, _ = l.stop()
		return nil, fmt.Errorf("first round: %w", err)
	}
	return l, nil
}

// waitUntil blocks until cond holds, re-checking it whenever the program
// signals a wake (see tracer) and at least every millisecond. A sleep-poll
// fine enough to time a round (Go rounds sleeps above ~10 µs up to the
// 1 ms timer tick) spins a whole P, and that CPU would land in
// cpu_ms_per_op.
func (l *live) waitUntil(cond func() bool) error {
	t0 := time.Now()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for !cond() {
		if l.exited.Load() {
			return errors.New("controller exited")
		}
		if time.Since(t0) > opTimeout {
			return fmt.Errorf("timed out after %v", opTimeout)
		}
		select {
		case <-l.tr.wake:
		case <-tick.C:
		}
	}
	return nil
}

// round drives one checkpoint round and returns its latency as the caller
// sees it and whether it ended in a detected SDC (both replicas rolled
// back) instead of a commit.
func (l *live) round() (time.Duration, bool, error) {
	p0 := l.ctrl.Progress()
	t0 := time.Now()
	l.ctrl.PredictFailure()
	var p core.Progress
	err := l.waitUntil(func() bool {
		p = l.ctrl.Progress()
		return p.Checkpoints > p0.Checkpoints || p.SDCDetected > p0.SDCDetected
	})
	return time.Since(t0), p.SDCDetected > p0.SDCDetected, err
}

// stop ends the run and returns the controller's statistics. The machine
// is stopped from outside between operations, so Run's ErrStopped is the
// expected outcome.
func (l *live) stop() (core.Stats, error) {
	l.ctrl.Machine().Stop()
	end := <-l.done
	l.closeDisk()
	if end.err != nil && !errors.Is(end.err, runtime.ErrStopped) {
		return end.stats, end.err
	}
	return end.stats, nil
}

func (l *live) closeDisk() {
	if l.disk != nil {
		_ = l.disk.Close() // checkpoints are discarded with the run's temp dir
	}
}

// setupSamples are the set-up samples of a run, in seconds.
type setupSamples struct{ cpu, wall []float64 }

// setUp builds the system setupReps times and keeps the last one; the
// others are torn down. Each sample runs from the start of building to the
// first committed epoch (the first also from process start).
func setUp[T any](mk func(i int) (T, error), teardown func(T)) (T, setupSamples, error) {
	var last T
	var s setupSamples
	for i := 0; i < setupReps; i++ {
		t0, c0 := time.Now(), cpuTime()
		if i == 0 {
			t0, c0 = processStart, 0
		}
		v, err := mk(i)
		if err != nil {
			return last, s, fmt.Errorf("setup %d: %w", i, err)
		}
		s.wall = append(s.wall, time.Since(t0).Seconds())
		s.cpu = append(s.cpu, (cpuTime() - c0).Seconds())
		if i < setupReps-1 {
			teardown(v)
			stdruntime.GC()
		}
		last = v
	}
	return last, s, nil
}

// flipAddr is the k-th seeded SDC target. The targets are fixed, not drawn
// from the run's seed, so sdc_detected_frac repeats exactly run to run.
func flipAddr(k int, sh shape) runtime.Addr {
	return runtime.Addr{Replica: k % 2, Node: (k / 2) % sh.nodes, Task: (k / (2 * sh.nodes)) % sh.tasks}
}

// flips is how many SDC injections a commit run makes after its measured
// window.
const flips = 8

// injectFlips runs the fixed SDC flips, one per round, and returns how many
// were detected and the targets of those that were not.
func (l *live) injectFlips() (detected int, undetected []runtime.Addr, err error) {
	for k := 0; k < flips; k++ {
		addr := flipAddr(k, l.sh)
		l.ctrl.InjectSDCAtNextCheckpoint(addr)
		_, sdc, err := l.round()
		if err != nil {
			return detected, undetected, fmt.Errorf("flip %d: %w", k, err)
		}
		if sdc {
			detected++
		} else {
			undetected = append(undetected, addr)
		}
	}
	// A final clean round leaves both replicas committed past any rollback.
	if _, sdc, err := l.round(); err != nil || sdc {
		return detected, undetected, fmt.Errorf("settling round: sdc=%v err=%v", sdc, err)
	}
	return detected, undetected, nil
}
