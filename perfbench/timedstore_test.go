package main

import (
	"bytes"
	"errors"
	"sort"
	"testing"
	"time"

	"acr/internal/ckptstore"
	"acr/internal/core"
	"acr/internal/pup"
	"acr/internal/runtime"
)

// staticProg never changes its state, so every checkpoint of a run is the
// same bytes however the scheduler interleaves it with the rounds.
type staticProg struct{ vals []float64 }

func (p *staticProg) Pup(q *pup.PUPer) { q.Float64s(&p.vals) }

func (p *staticProg) Run(ctx *runtime.Ctx) error {
	for i := 0; ; i++ {
		if err := ctx.Progress(i); err != nil {
			return err
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// flushRun drives rounds committed epochs through a controller flushing
// every epoch to st, and returns the durable epochs it reports.
func flushRun(t *testing.T, st ckptstore.Store, rounds int) []uint64 {
	t.Helper()
	ctrl, err := core.New(core.Config{
		NodesPerReplica: 2, TasksPerNode: 2,
		Factory: func(a runtime.Addr) runtime.Program {
			vals := make([]float64, 5000)
			for i := range vals {
				vals[i] = float64(a.Node*100 + a.Task*10 + i)
			}
			return &staticProg{vals: vals}
		},
		Comparison: core.ChecksumCompare,
		FlushEvery: 1,
		FlushStore: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ctrl.Run()
		done <- err
	}()
	for r := 1; r <= rounds; r++ {
		ctrl.PredictFailure()
		deadline := time.Now().Add(10 * time.Second)
		for ctrl.Progress().Checkpoints < int64(r) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d never committed", r)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	if _, err := ctrl.FlushCommitted(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	epochs := ctrl.DurableEpochs()
	ctrl.Machine().Stop()
	if err := <-done; err != nil && !errors.Is(err, runtime.ErrStopped) {
		t.Fatal(err)
	}
	return epochs
}

func diskContents(t *testing.T, d *ckptstore.Disk) (map[ckptstore.Key][]byte, ckptstore.Counters) {
	t.Helper()
	out := make(map[ckptstore.Key][]byte)
	for _, k := range d.Keys() {
		ck, err := d.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = append([]byte(nil), ck.Bytes()...)
	}
	return out, d.Counters()
}

func TestTimedStoreRunMatchesUnwrapped(t *testing.T) {
	const rounds = 6
	plain, err := ckptstore.NewDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	plainEpochs := flushRun(t, plain, rounds)

	inner, err := ckptstore.NewDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	tr := newTracer()
	tr.on.Store(true)
	wrapped, rec := wrapTimed(inner, tr)
	wrappedEpochs := flushRun(t, wrapped, rounds)

	if len(plainEpochs) == 0 || !equalEpochs(plainEpochs, wrappedEpochs) {
		t.Errorf("durable epochs: unwrapped %v, wrapped %v", plainEpochs, wrappedEpochs)
	}
	a, ac := diskContents(t, plain)
	b, bc := diskContents(t, inner)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("resident checkpoints: unwrapped %d, wrapped %d", len(a), len(b))
	}
	for k, v := range a {
		if !bytes.Equal(v, b[k]) {
			t.Errorf("%v differs between the unwrapped and wrapped runs", k)
		}
	}
	if ac.Puts != bc.Puts || ac.BytesWritten != bc.BytesWritten {
		t.Errorf("writes: unwrapped %d puts / %d B, wrapped %d puts / %d B", ac.Puts, ac.BytesWritten, bc.Puts, bc.BytesWritten)
	}
	ops := rec.take()
	if int64(len(ops.puts)) != bc.Puts || ops.putBytes != bc.BytesWritten {
		t.Errorf("recorded %d puts / %d B, the tier took %d / %d", len(ops.puts), ops.putBytes, bc.Puts, bc.BytesWritten)
	}
}

func equalEpochs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTimedStoreForwardsCapabilities(t *testing.T) {
	disk, err := ckptstore.NewDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	mem := ckptstore.NewMem()
	remote := ckptstore.NewResilient(ckptstore.NewRemote(ckptstore.RemoteOptions{}), ckptstore.ResilientOptions{})
	defer remote.Close()
	for _, inner := range []ckptstore.Store{disk, mem, remote} {
		w, _ := wrapTimed(inner, newTracer())
		_, wantEnum := inner.(ckptstore.Enumerator)
		_, wantVol := inner.(ckptstore.Volatile)
		_, gotEnum := w.(ckptstore.Enumerator)
		_, gotVol := w.(ckptstore.Volatile)
		if gotEnum != wantEnum || gotVol != wantVol {
			t.Errorf("%s: Enumerator %v/%v, Volatile %v/%v (wrapped/inner)", inner.Name(), gotEnum, wantEnum, gotVol, wantVol)
		}
		if _, ok := ckptstore.ResilientStatsOf(w); ok != (inner == ckptstore.Store(remote)) {
			t.Errorf("%s: ResilientStatsOf through the wrapper = %v", inner.Name(), ok)
		}
		if w.Name() != inner.Name() {
			t.Errorf("Name %q, want %q", w.Name(), inner.Name())
		}
	}

	// Keys and DropNode reach the inner tier.
	w, _ := wrapTimed(mem, newTracer())
	ck := ckptstore.Capture(make([]byte, 100), 64, 1)
	for _, k := range []ckptstore.Key{{Replica: 0, Node: 1, Epoch: 1}, {Replica: 1, Node: 0, Epoch: 1}} {
		if err := w.Put(k, ck); err != nil {
			t.Fatal(err)
		}
	}
	keys := w.(ckptstore.Enumerator).Keys()
	sort.Slice(keys, func(i, j int) bool { return keys[i].Replica < keys[j].Replica })
	if len(keys) != 2 || keys[0].Node != 1 {
		t.Errorf("Keys through the wrapper = %v", keys)
	}
	if n := w.(ckptstore.Volatile).DropNode(0, 1); n != 1 || mem.Len() != 1 {
		t.Errorf("DropNode through the wrapper dropped %d, %d left", n, mem.Len())
	}
}
