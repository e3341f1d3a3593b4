package main

import (
	"bytes"
	"fmt"
	stdruntime "runtime"
	"sort"
	"time"

	"acr/internal/checksum"
	"acr/internal/ckptstore"
	"acr/internal/core"
	"acr/internal/pup"
	"acr/internal/runtime"
)

// Layer replay re-runs single layers in isolation on the workload's own
// state shape and seed, outside every measured window of the traced run.
// Each op is timed on its own; the reported figure is the median op. Rates
// are computed bytes (state bytes / op time), and the states fit in the
// host's last-level cache, so they are not bandwidth-roofline numbers.

// replayReps and replayBudget bound one replayed op: at least replayReps
// timings, then more until the budget is spent.
const (
	replayReps   = 41
	replayBudget = 150 * time.Millisecond
)

// replayResult holds the median op times of one replay.
type replayResult struct {
	n                       int // timings behind each figure (minimum over ops)
	stateBytes              int // one task's packed state
	packFull, packPatch     time.Duration
	unpack                  time.Duration
	sum1, sumN              time.Duration
	captureReplica, restart time.Duration
	memPut, memCompare      time.Duration
	procs                   int
}

// timeOp times op repeatedly (prep runs untimed before each timing) and
// returns the median duration and the number of timings.
func timeOp(prep, op func() error) (time.Duration, int, error) {
	var ds []time.Duration
	t0 := time.Now()
	for len(ds) < replayReps || time.Since(t0) < replayBudget {
		if prep != nil {
			if err := prep(); err != nil {
				return 0, 0, err
			}
		}
		s := time.Now()
		if err := op(); err != nil {
			return 0, 0, err
		}
		ds = append(ds, time.Since(s))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], len(ds), nil
}

// parkGate parks every task at its first Progress call, so replica
// restarts on an unstarted machine run one ring hop and then sit still.
type parkGate struct{ never chan struct{} }

func (g parkGate) Report(runtime.Addr, int) <-chan struct{} { return g.never }
func (parkGate) Done(runtime.Addr)                          {}

func replay(sh shape, cmp core.Comparison, seed int64) (*replayResult, error) {
	r := &replayResult{procs: stdruntime.GOMAXPROCS(0), n: 1 << 30}
	note := func(d time.Duration, n int, err error) (time.Duration, error) {
		if n < r.n {
			r.n = n
		}
		return d, err
	}
	off := newTracer()
	prog := sh.factory(seed, off)(runtime.Addr{}).(*ringProg)
	step := func() error {
		for i := 0; i < prog.hot; i++ {
			prog.vals[i] += 0.5
		}
		prog.iter++
		return nil
	}
	data, err := pup.Pack(prog)
	if err != nil {
		return nil, err
	}
	r.stateBytes = len(data)

	// pup: full single-pass pack, patch-in-place pack, unpack.
	buf := make([]byte, 0, len(data))
	if r.packFull, err = note(timeOp(step, func() error {
		_, _, err := pup.PackInto(prog, buf)
		return err
	})); err != nil {
		return nil, fmt.Errorf("replay pack: %w", err)
	}
	spans := pup.FieldSpans(prog)
	dirty := []pup.Range{spans["iter"], spans["vals"].Slice(0, sh.hot, 8)}
	prev := append([]byte(nil), data...)
	base := append([]byte(nil), data...)
	if r.packPatch, err = note(timeOp(step, func() error {
		res, err := pup.PackDirtyPatch(prog, base, prev, dirty, dirty)
		if err == nil {
			// Retained two-buffer scheme: the old prev is the next base.
			base, prev = prev, res.Data
		}
		return err
	})); err != nil {
		return nil, fmt.Errorf("replay patch: %w", err)
	}
	into := sh.factory(seed, off)(runtime.Addr{})
	if r.unpack, err = note(timeOp(nil, func() error { return pup.Unpack(data, into) })); err != nil {
		return nil, fmt.Errorf("replay unpack: %w", err)
	}

	// checksum: chunked Fletcher-64 with one worker and with GOMAXPROCS.
	sums := make([]uint64, 0, checksum.NumChunks(len(data), checksum.DefaultChunkSize))
	for _, w := range []int{1, r.procs} {
		d, err := note(timeOp(nil, func() error {
			checksum.Fletcher64ChunksInto(sums, data, checksum.DefaultChunkSize, w)
			return nil
		}))
		if err != nil {
			return nil, err
		}
		if w == 1 {
			r.sum1 = d
		} else {
			r.sumN = d
		}
	}

	// runtime: capture and restart of replica 0 on an unstarted machine
	// with a pooled mem store, as the controller's own commit path runs
	// it. One iteration's writes land on every task between captures.
	m, err := runtime.NewMachine(runtime.Config{
		NodesPerReplica: sh.nodes, TasksPerNode: sh.tasks,
		Factory: sh.factory(seed, off), Gate: parkGate{make(chan struct{})},
	})
	if err != nil {
		return nil, err
	}
	defer m.Stop()
	st := ckptstore.NewMem()
	pool := ckptstore.NewPool(0)
	st.SetPool(pool)
	opts := runtime.CaptureOptions{Pool: pool, PatchCapture: true}
	var epoch uint64
	writeAll := func() error {
		for n := 0; n < sh.nodes; n++ {
			for t := 0; t < sh.tasks; t++ {
				m.CorruptTask(runtime.Addr{Node: n, Task: t}, func(p pup.Pupable) {
					rp := p.(*ringProg)
					for i := 0; i < rp.hot; i++ {
						rp.vals[i] += 0.5
					}
					rp.iter++
					rp.MarkSpan(dirty[0])
					rp.MarkSpan(dirty[1])
				})
			}
		}
		epoch++
		return nil
	}
	if r.captureReplica, err = note(timeOp(writeAll, func() error {
		if err := m.CaptureReplica(0, epoch, st, opts); err != nil {
			return err
		}
		st.Evict(epoch)
		return nil
	})); err != nil {
		return nil, fmt.Errorf("replay capture: %w", err)
	}
	if r.restart, err = note(timeOp(func() error { m.StopReplica(0); return nil }, func() error {
		return m.RestartReplicaFromStore(0, epoch, st)
	})); err != nil {
		return nil, fmt.Errorf("replay restart: %w", err)
	}
	m.StopReplica(0)

	// ckptstore: mem Put of one task checkpoint, and the buddy comparison
	// the workload's Comparison runs per task.
	ck := ckptstore.Capture(data, checksum.DefaultChunkSize, 1)
	mem := ckptstore.NewMem()
	ka := ckptstore.Key{Replica: 0, Epoch: 1}
	kb := ckptstore.Key{Replica: 1, Epoch: 1}
	if r.memPut, err = note(timeOp(nil, func() error { return mem.Put(ka, ck) })); err != nil {
		return nil, err
	}
	if err := mem.Put(kb, ckptstore.Capture(append([]byte(nil), data...), checksum.DefaultChunkSize, 1)); err != nil {
		return nil, err
	}
	compare := func() error {
		res, err := mem.Compare(ka, kb)
		if err == nil && !res.Match {
			err = fmt.Errorf("replay compare: identical checkpoints differ")
		}
		return err
	}
	if cmp == core.FullCompare {
		compare = func() error {
			a, err := mem.Get(ka)
			if err != nil {
				return err
			}
			b, err := mem.Get(kb)
			if err != nil {
				return err
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				return fmt.Errorf("replay compare: identical checkpoints differ")
			}
			return nil
		}
	}
	if r.memCompare, err = note(timeOp(nil, compare)); err != nil {
		return nil, err
	}
	return r, nil
}

func mbPerSec(bytes int, d time.Duration) float64 {
	return float64(bytes) / d.Seconds() / 1e6
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// record adds the replay figures as per-layer metrics.
func (r *replayResult) record(o *outcome) {
	o.layer("pup.pack_full_mb_per_s", "MB/s", mbPerSec(r.stateBytes, r.packFull), r.n)
	o.layer("pup.pack_patch_mb_per_s", "MB/s", mbPerSec(r.stateBytes, r.packPatch), r.n)
	o.layer("pup.unpack_mb_per_s", "MB/s", mbPerSec(r.stateBytes, r.unpack), r.n)
	o.layer("checksum.fletcher64_mb_per_s_1w", "MB/s", mbPerSec(r.stateBytes, r.sum1), r.n)
	o.layer("checksum.fletcher64_mb_per_s_nw", "MB/s", mbPerSec(r.stateBytes, r.sumN), r.n)
	o.layer("runtime.capture_replica_ms", "ms", msOf(r.captureReplica), r.n)
	o.layer("runtime.restart_replica_ms", "ms", msOf(r.restart), r.n)
	o.layer("ckptstore.mem_put_ms", "ms", msOf(r.memPut), r.n)
	o.layer("ckptstore.mem_compare_ms", "ms", msOf(r.memCompare), r.n)
	o.notef("replay: %d B per task state, %d timings per op; MB/s are computed bytes (state bytes / median op time) on a cache-resident state, not a bandwidth roofline",
		r.stateBytes, r.n)
}
