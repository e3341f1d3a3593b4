package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestContractMatchesBenchmarkJSON keeps the metric lists the program
// reports in step with the BENCHMARK.json beside the benchmark.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }  `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []contractMetric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if got, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		} else if got.why != w.Why {
			t.Errorf("%s: program gives the reason %q, BENCHMARK.json %q", w.Name, got.why, w.Why)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
}

func TestCompareRefusesDifferentMachines(t *testing.T) {
	dir := t.TempDir()
	st := stamp{Workload: "commit-full", GOMAXPROCS: 2, NumCPU: 2, Commit: "abc"}
	o := &outcome{}
	o.e2e("cpu_ms_per_round", "cpu_ms_per_op", "ms", 13.2, 50)
	write := func(name string, s stamp) string {
		p := filepath.Join(dir, name)
		if err := writeReport(p, s, o); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", st)
	for _, tc := range []struct {
		name   string
		mutate func(*stamp)
		refuse string
	}{
		{"same", func(*stamp) {}, ""},
		{"maxprocs", func(s *stamp) { s.GOMAXPROCS = 1 }, "GOMAXPROCS"},
		{"cpus", func(s *stamp) { s.NumCPU = 4 }, "NumCPU"},
		{"workload", func(s *stamp) { s.Workload = "restart" }, "workload"},
	} {
		other := st
		tc.mutate(&other)
		p := write(tc.name+".json", other)
		var out, errOut bytes.Buffer
		code := compareReports([]string{base, p}, &out, &errOut)
		if tc.refuse == "" {
			if code != 0 || !strings.Contains(out.String(), "cpu_ms_per_round") {
				t.Errorf("%s: code %d, out %q, err %q", tc.name, code, out.String(), errOut.String())
			}
			continue
		}
		if code == 0 || !strings.Contains(errOut.String(), tc.refuse) {
			t.Errorf("%s: code %d, stderr %q; want a refusal naming %s", tc.name, code, errOut.String(), tc.refuse)
		}
	}
}

func TestCheckContractRequiresEveryMetric(t *testing.T) {
	o := &outcome{}
	for _, c := range endToEnd[1:] {
		o.e2e(c.name, c.name, c.unit, 1, 1)
	}
	if err := o.checkContract(false); err == nil || !strings.Contains(err.Error(), endToEnd[0].name) {
		t.Errorf("missing %s: err = %v", endToEnd[0].name, err)
	}
	o.e2e(endToEnd[0].name, endToEnd[0].name, "ms", 1, 1)
	if err := o.checkContract(false); err == nil || !strings.Contains(err.Error(), "unit") {
		t.Errorf("wrong unit: err = %v", err)
	}
}
