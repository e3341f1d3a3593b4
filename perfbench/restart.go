package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"acr/internal/core"
)

// restartShape: 2 nodes × 2 tasks per replica, 512 KiB per task. At 1 MiB
// a cycle took 70–170 ms on 2 vCPUs, too few cycles in a 10 s window to
// report p90 when the host ran slow.
var restartShape = shape{nodes: 2, tasks: 2, floats: 1 << 16, hot: 1 << 16}

func restartConfig() core.Config {
	return core.Config{
		Scheme:            core.Strong,
		Comparison:        core.ChecksumCompare,
		HeartbeatInterval: time.Millisecond,
		HeartbeatTimeout:  4 * time.Millisecond,
		Spares:            1,
		FlushEvery:        1,
	}
}

// cycle is one recovery cycle's timings.
type cycle struct {
	flush, recover, restore time.Duration
}

// recoveryCycle runs one seeded cycle: a round and a forced durable flush;
// a node kill, timed until the controller has rolled back (detection plus
// buddy restore, tier 0); a freed spare; and a restore of the flushed
// epoch from disk (tier 1), timed around RestoreEpoch.
func (l *live) recoveryCycle(rng *rand.Rand) (cycle, error) {
	var c cycle
	if _, sdc, err := l.round(); err != nil || sdc {
		return c, fmt.Errorf("round: sdc=%v err=%v", sdc, err)
	}
	t0 := time.Now()
	epoch, err := l.ctrl.FlushCommitted(opTimeout)
	c.flush = time.Since(t0)
	if err != nil {
		return c, fmt.Errorf("flush: %w", err)
	}
	p0 := l.ctrl.Progress()
	rep, node := rng.Intn(2), rng.Intn(l.sh.nodes)
	t0 = time.Now()
	l.ctrl.KillNode(rep, node)
	if err := l.waitUntil(func() bool { return l.ctrl.Progress().Rollbacks > p0.Rollbacks }); err != nil {
		return c, fmt.Errorf("recover r%d/n%d: %w", rep, node, err)
	}
	c.recover = time.Since(t0)
	l.ctrl.FreeSpare()
	t0 = time.Now()
	err = l.ctrl.RestoreEpoch(epoch, opTimeout)
	c.restore = time.Since(t0)
	if err != nil {
		return c, fmt.Errorf("restore epoch %d: %w", epoch, err)
	}
	return c, nil
}

type cycleWindow struct {
	cycles    []cycle
	wall, cpu time.Duration
}

func (w cycleWindow) perSec() float64 { return float64(len(w.cycles)) / w.wall.Seconds() }

func (w cycleWindow) pick(f func(cycle) time.Duration) []float64 {
	out := make([]float64, len(w.cycles))
	for i, c := range w.cycles {
		out[i] = float64(f(c)) / 1e6
	}
	return out
}

// cycleWindow drives back-to-back cycles; like roundWindow it sums CPU
// time over the cycles only.
func (l *live) cycleWindow(d time.Duration, rng *rand.Rand) (cycleWindow, error) {
	var w cycleWindow
	t0 := time.Now()
	for inWindow(time.Since(t0), d, len(w.cycles)) {
		c0 := cpuTime()
		c, err := l.recoveryCycle(rng)
		w.cpu += cpuTime() - c0
		if err != nil {
			return w, err
		}
		w.cycles = append(w.cycles, c)
	}
	w.wall = time.Since(t0)
	return w, nil
}

func runRestart(rc runConfig) (*outcome, error) {
	o := &outcome{traced: rc.trace}
	tr := newTracer()
	sh := restartShape
	mk := func(i int) (*live, error) {
		return startLive(restartConfig(), sh, rc.seed, tr, filepath.Join(rc.tmp, fmt.Sprintf("flush-%d", i)))
	}
	l, setups, err := setUp(mk, func(l *live) { _, _ = l.stop() })
	if err != nil {
		return o, err
	}
	rng := rand.New(rand.NewSource(rc.seed))
	var base, w cycleWindow
	var ops storeOps
	var packNs, unpackNs int64
	if rc.trace {
		base, err = l.cycleWindow(rc.window()/2, rng)
		if err == nil {
			tr.packNs.Store(0)
			tr.unpackNs.Store(0)
			tr.on.Store(true)
			w, err = l.cycleWindow(rc.window()/2, rng)
			tr.on.Store(false)
			packNs, unpackNs = tr.packNs.Load(), tr.unpackNs.Load()
			ops = l.timed.take()
		}
		o.attempted = len(base.cycles) + len(w.cycles)
	} else {
		w, err = l.cycleWindow(rc.window(), rng)
		base = w
		o.attempted = len(w.cycles)
	}
	stats, stopErr := l.stop()
	if err != nil {
		o.attempted++
		o.failed++
		return o, fmt.Errorf("%w: %v", errIncorrect, err)
	}
	if stopErr != nil {
		return o, fmt.Errorf("%w: run: %v", errIncorrect, stopErr)
	}
	orc, err := checkMachine(l.ctrl.Machine(), sh, rc.seed, nil)
	if err != nil {
		return o, fmt.Errorf("%w: %v", errIncorrect, err)
	}
	o.notef("oracle: %d task states match the closed form after %d kill/restore cycles", orc.tasks, o.attempted)
	o.notef("ladder: tier recoveries %v (buddy, durable, older durable, remote)", stats.TierRecoveries)

	if err := o.setupMetric(setups); err != nil {
		return o, err
	}
	o.e2e("recoveries_per_s", "", "1/s", base.perSec(), len(base.cycles))
	restore := base.pick(func(c cycle) time.Duration { return c.restore })
	if err := o.pct("restore_ms_p50", "", restore, 0.5); err != nil {
		return o, err
	}
	if err := o.pct("restore_ms_p90", "", restore, 0.9); err != nil {
		return o, err
	}
	recov := base.pick(func(c cycle) time.Duration { return c.recover })
	if err := o.pct("recover_ms_p50", "", recov, 0.5); err != nil {
		return o, err
	}
	if err := o.pct("recover_ms_p90", "", recov, 0.9); err != nil {
		return o, err
	}
	o.e2e("cpu_ms_per_cycle", "cpu_ms_per_op", "ms", float64(base.cpu)/1e6/float64(len(base.cycles)), len(base.cycles))
	o.rssMetric()
	o.e2e("failed_frac", "", "fraction", ratio(float64(o.failed), float64(o.attempted)), o.attempted)
	if !rc.trace {
		return o, nil
	}

	rounds := float64(stats.Checkpoints)
	o.layer("trace.overhead_pct", "%", 100*(base.perSec()-w.perSec())/base.perSec(), len(w.cycles))
	o.statsLayers(stats, rounds)
	o.layer("core.sdc_detected_frac", "fraction", 0, 0)
	o.layer("ckptstore.disk_puts_per_round", "count", ratio(float64(l.disk.Counters().Puts), rounds), stats.Checkpoints)
	o.jobLayers(nil)
	n := len(w.cycles)
	o.layer("pup.pack_ms_per_round", "ms", float64(packNs)/1e6/float64(n), n)
	// Each cycle restores twice: the killed replica from its buddy, then
	// both replicas from disk.
	o.layer("pup.unpack_ms_per_restore", "ms", float64(unpackNs)/1e6/float64(2*n), 2*n)
	o.diskLayers(ops)
	o.optionalPct("core.flush_committed_ms_p50", w.pick(func(c cycle) time.Duration { return c.flush }), 0.5)
	rp, err := replay(sh, core.ChecksumCompare, rc.seed)
	if err != nil {
		return o, err
	}
	rp.record(o)
	return o, nil
}
