package main

import (
	"sync/atomic"
	"time"

	"acr/internal/pup"
	"acr/internal/runtime"
)

// tracer holds the spans the benchmark records around the program's own
// Pup and Progress calls. Stall time is always recorded: it feeds an
// end-to-end metric (the pause the application sees). Pup spans are
// recorded only while on is set, in the traced half of a traced run.
//
// wake tells the load loop that the protocol may have moved: a task was
// released from a checkpoint round (the controller releases tasks only
// after it has counted the commit or the SDC), or a new incarnation ran
// its first iteration after a restart. The loop re-checks
// Controller.Progress on each wake instead of spinning on it.
type tracer struct {
	on       atomic.Bool
	stallNs  atomic.Int64
	packNs   atomic.Int64
	unpackNs atomic.Int64
	wake     chan struct{}
}

func newTracer() *tracer { return &tracer{wake: make(chan struct{}, 1)} }

// parkedMin separates a Progress call that waited out a round (at least
// the round's duration, milliseconds) from one that returned at once.
const parkedMin = 20 * time.Microsecond

func (t *tracer) notify() {
	select {
	case t.wake <- struct{}{}:
	default: // a wake is already pending
	}
}

// ringProg is the benchmark-owned application: a lock-step token ring
// (one nil-payload hop per iteration, so the replica's tasks never drift
// apart and a round never starts with a catch-up march) over a flat
// []float64 whose first hot elements gain 0.5 per iteration. The state is
// therefore a closed-form function of iter (see expectVal), which is what
// lets the oracle check every task after a run, and an iteration
// allocates nothing.
type ringProg struct {
	pup.WriteSet
	iter int64
	vals []float64

	hot int // derived, not checkpointed
	tr  *tracer
}

// Pup implements pup.Pupable. Packing and unpacking time is attributed to
// the pup layer when the tracer is on; the Sizing pass FieldSpans makes
// is not.
func (r *ringProg) Pup(p *pup.PUPer) {
	mode := p.Mode()
	timed := mode != pup.Sizing && r.tr != nil && r.tr.on.Load()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	p.Label("iter")
	p.Int64(&r.iter)
	p.Label("vals")
	p.Float64s(&r.vals)
	if !timed {
		return
	}
	d := int64(time.Since(t0))
	switch mode {
	case pup.Packing:
		r.tr.packNs.Add(d)
	case pup.Unpacking:
		r.tr.unpackNs.Add(d)
	}
}

// Run advances the ring until the machine stops it. State advances before
// Send/Recv/Progress, the only calls that can end the incarnation, so a
// stopped or parked task always satisfies the closed form.
func (r *ringProg) Run(ctx *runtime.Ctx) error {
	next := ctx.AddrOfGlobal((ctx.GlobalTask() + 1) % ctx.NumTasks())
	spans := pup.FieldSpans(r)
	hot := spans["vals"].Slice(0, r.hot, 8)
	iterSpan := spans["iter"]
	first := true
	for {
		for i := 0; i < r.hot; i++ {
			r.vals[i] += 0.5
		}
		r.iter++
		r.MarkSpan(hot)
		r.MarkSpan(iterSpan)
		if err := ctx.Send(next, 0, nil); err != nil {
			return err
		}
		if _, err := ctx.Recv(); err != nil {
			return err
		}
		t0 := time.Now()
		err := ctx.Progress(int(r.iter))
		d := time.Since(t0)
		r.tr.stallNs.Add(int64(d))
		if err != nil {
			return err
		}
		if first || d >= parkedMin {
			r.tr.notify()
			first = false
		}
	}
}

// initVal is element i's factory value on global task g. Every value is a
// multiple of 0.25 below 1024, so adding 0.5 per iteration stays exact in
// float64 for any reachable iteration count and the closed form holds bit
// for bit.
func initVal(seed int64, g, i int) float64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(g)*40503 + uint64(i)*7
	return float64(h%4096) * 0.25
}

// expectVal is the closed form of element i after iter iterations.
func expectVal(seed int64, g, i, hot int, iter int64) float64 {
	v := initVal(seed, g, i)
	if i < hot {
		v += 0.5 * float64(iter)
	}
	return v
}

// shape is one workload's program geometry.
type shape struct {
	nodes, tasks int // per replica
	floats       int // state elements per task
	hot          int // leading elements written every iteration
}

// factory seeds every task from (seed, node, task) only — never the
// replica — so buddy tasks start identical.
func (s shape) factory(seed int64, tr *tracer) runtime.Factory {
	return func(addr runtime.Addr) runtime.Program {
		g := addr.Node*s.tasks + addr.Task
		vals := make([]float64, s.floats)
		for i := range vals {
			vals[i] = initVal(seed, g, i)
		}
		return &ringProg{vals: vals, hot: s.hot, tr: tr}
	}
}
