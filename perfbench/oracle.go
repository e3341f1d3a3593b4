package main

import (
	"fmt"
	"math"
	"math/bits"

	"acr/internal/pup"
	"acr/internal/runtime"
)

// oracleResult is the end-of-run state check.
type oracleResult struct {
	tasks   int // task states checked (both replicas)
	escapes int // elements off the closed form by exactly one undetected flip
}

// checkMachine unpacks every task of both replicas of a stopped machine
// (Machine.PackTask, then pup.Unpack into a fresh program) and checks each
// element against the closed form. A task may differ only where an
// undetected seeded flip landed: one element per undetected flip on that
// task, off by exactly one bit — an SDC escape, counted, not failed.
// Anything else is an error: the checkpoint/restart path lost or corrupted
// state on its own.
func checkMachine(m *runtime.Machine, sh shape, seed int64, undetected []runtime.Addr) (oracleResult, error) {
	var res oracleResult
	allowed := make(map[runtime.Addr]int)
	for _, a := range undetected {
		allowed[a]++
	}
	for rep := 0; rep < 2; rep++ {
		for n := 0; n < sh.nodes; n++ {
			for t := 0; t < sh.tasks; t++ {
				addr := runtime.Addr{Replica: rep, Node: n, Task: t}
				data, err := m.PackTask(addr)
				if err != nil {
					return res, fmt.Errorf("oracle: pack %v: %w", addr, err)
				}
				esc, err := checkTask(data, sh, seed, n*sh.tasks+t, allowed[addr])
				if err != nil {
					return res, fmt.Errorf("oracle: %v: %w", addr, err)
				}
				res.tasks++
				res.escapes += esc
			}
		}
	}
	return res, nil
}

// checkTask checks one packed task state against the closed form of global
// task g and returns the number of attributed single-bit escapes.
func checkTask(data []byte, sh shape, seed int64, g, allowed int) (int, error) {
	var p ringProg
	if err := pup.Unpack(data, &p); err != nil {
		return 0, fmt.Errorf("unpack: %w", err)
	}
	if len(p.vals) != sh.floats {
		return 0, fmt.Errorf("state has %d elements, want %d", len(p.vals), sh.floats)
	}
	if p.iter <= 0 {
		return 0, fmt.Errorf("task never advanced (iter %d)", p.iter)
	}
	escapes := 0
	for i, got := range p.vals {
		want := expectVal(seed, g, i, sh.hot, p.iter)
		if got == want {
			continue
		}
		flipped := bits.OnesCount64(math.Float64bits(got) ^ math.Float64bits(want))
		if flipped != 1 || escapes == allowed {
			return escapes, fmt.Errorf("element %d = %v at iter %d, want %v (%d bits differ, %d undetected flips on this task)",
				i, got, p.iter, want, flipped, allowed)
		}
		escapes++
	}
	return escapes, nil
}
