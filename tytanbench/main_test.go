package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/asm"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the printed metrics against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload briefly, untraced and traced, including
// engine-kernel, which BENCHMARK.json does not list, and checks that
// every op passed its checks and that the result line carries exactly
// the declared metrics with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %s, benchmark has %s", w.Name, strings.Join(workloadNames(), ", "))
		}
	}
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 1, seconds: 0.2, trace: traced, minOps: 20, setups: 1}
			res, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			var out bytes.Buffer
			if err := res.write(&out); err != nil {
				t.Fatal(err)
			}
			// The end-to-end metrics README.md lists that BENCHMARK.json does
			// not gate must still be printed with their units.
			want, shown := spec.EndToEnd, []string{
				"op_p50_ms ms", "op_p99_ms ms", "op_samples count",
				"sim_cycles_per_op cycles", "error_rate ratio",
			}
			if !strings.HasPrefix(w, "fleet-") {
				shown = append(shown, "sim_mips MIPS")
			}
			if traced {
				want, shown = spec.PerLayer, nil
			}
			checkOutput(t, fmt.Sprintf("%s trace=%v", w, traced), out.String(), want, shown)
		}
	}
}

func checkOutput(t *testing.T, label, out string, want []specMetric, shown []string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var last struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line: %v", label, err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", label, last.Correct, last.Attempted, last.Failed, out)
	}
	if len(last.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", label, len(last.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := last.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: metric %s: got %+v (present %v), want unit %s", label, m.Name, got, ok, m.Unit)
		}
		if !strings.Contains(out, "\nmetric "+m.Name+" ") {
			t.Errorf("%s: metric %s not printed", label, m.Name)
		}
	}
	for _, s := range shown {
		name, unit, _ := strings.Cut(s, " ")
		found := false
		for _, l := range lines {
			f := strings.Fields(l)
			found = found || (len(f) >= 4 && f[0] == "metric" && f[1] == name && f[3] == unit)
		}
		if !found {
			t.Errorf("%s: %s not printed with unit %s", label, name, unit)
		}
	}
}

// TestBadArgs checks that a bad invocation exits non-zero without a
// result line.
func TestBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "secure-load", "--trace", "2"},
		{"--workload", "secure-load", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestLayerAttribution checks that heap samples under a repository
// function land on its layer.
func TestLayerAttribution(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	runtime.GC()
	before, err := heapProfile()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := asm.Assemble(".task \"t\"\n.entry main\n.text\nmain:\n    ldi r1, 1\n    svc 0\n"); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	after, err := heapProfile()
	if err != nil {
		t.Fatal(err)
	}
	b, err := layerTotals(before, "alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	a, err := layerTotals(after, "alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	if a["asm"] <= b["asm"] {
		t.Errorf("asm allocations %d → %d; want growth", b["asm"], a["asm"])
	}
}
