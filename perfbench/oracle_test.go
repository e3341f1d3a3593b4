package main

import (
	"math"
	"strings"
	"testing"

	"acr/internal/pup"
	"acr/internal/runtime"
)

// advancedMachine builds an unstarted machine whose tasks have all run
// iters iterations of the ring program's state update.
func advancedMachine(t *testing.T, sh shape, seed int64, iters int) *runtime.Machine {
	t.Helper()
	m, err := runtime.NewMachine(runtime.Config{
		NodesPerReplica: sh.nodes, TasksPerNode: sh.tasks,
		Factory: sh.factory(seed, newTracer()), Gate: runtime.NopGate{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		for n := 0; n < sh.nodes; n++ {
			for k := 0; k < sh.tasks; k++ {
				m.CorruptTask(runtime.Addr{Replica: rep, Node: n, Task: k}, func(p pup.Pupable) {
					r := p.(*ringProg)
					for it := 0; it < iters; it++ {
						for i := 0; i < r.hot; i++ {
							r.vals[i] += 0.5
						}
						r.iter++
					}
				})
			}
		}
	}
	return m
}

func flipBits(m *runtime.Machine, addr runtime.Addr, elem int, mask uint64) {
	m.CorruptTask(addr, func(p pup.Pupable) {
		r := p.(*ringProg)
		r.vals[elem] = math.Float64frombits(math.Float64bits(r.vals[elem]) ^ mask)
	})
}

func TestOracleAcceptsClosedForm(t *testing.T) {
	sh := shape{nodes: 2, tasks: 2, floats: 64, hot: 16}
	res, err := checkMachine(advancedMachine(t, sh, 7, 13), sh, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.tasks != 8 || res.escapes != 0 {
		t.Errorf("got %+v, want 8 tasks and no escapes", res)
	}
}

func TestOracleAttributesPlantedFlip(t *testing.T) {
	sh := shape{nodes: 2, tasks: 2, floats: 64, hot: 16}
	addr := runtime.Addr{Replica: 1, Node: 1, Task: 0}
	m := advancedMachine(t, sh, 7, 13)
	flipBits(m, addr, 40, 1<<20) // a cold element: one mantissa bit

	res, err := checkMachine(m, sh, 7, []runtime.Addr{addr})
	if err != nil {
		t.Fatalf("flip on a task with an undetected injection: %v", err)
	}
	if res.escapes != 1 {
		t.Errorf("escapes = %d, want 1", res.escapes)
	}

	// The same flip with no undetected injection on that task is a
	// checkpoint/restart failure, not an escape.
	_, err = checkMachine(m, sh, 7, []runtime.Addr{{Replica: 0, Node: 1, Task: 0}})
	if err == nil || !strings.Contains(err.Error(), "element 40") {
		t.Errorf("unattributed flip: err = %v, want a failure naming element 40", err)
	}
}

func TestOracleRejectsMoreThanOneBit(t *testing.T) {
	sh := shape{nodes: 1, tasks: 2, floats: 64, hot: 16}
	addr := runtime.Addr{Replica: 0, Node: 0, Task: 1}
	m := advancedMachine(t, sh, 3, 5)
	flipBits(m, addr, 3, 0b11) // a hot element, two bits
	if _, err := checkMachine(m, sh, 3, []runtime.Addr{addr}); err == nil {
		t.Error("two-bit difference accepted as an escape")
	}

	m = advancedMachine(t, sh, 3, 5)
	flipBits(m, addr, 3, 1)
	flipBits(m, addr, 9, 1)
	if _, err := checkMachine(m, sh, 3, []runtime.Addr{addr}); err == nil {
		t.Error("two flipped elements accepted against one undetected injection")
	}
}
