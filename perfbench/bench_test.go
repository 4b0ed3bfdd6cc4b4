package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// reportLine is the line before it.
type reportLine struct {
	Metrics  map[string]named `json:"metrics"`
	Notes    map[string]any   `json:"notes"`
	Problems []string         `json:"problems"`
}

// smoke runs one workload at smoke size and parses its two output lines.
func smoke(t *testing.T, w workload, seed int64, trace bool) (result, reportLine) {
	t.Helper()
	return run(t, w, seed, trace, true)
}

// run runs one workload for as little time as it allows and parses its
// two output lines; it fails the test unless the run is correct.
func run(t *testing.T, w workload, seed int64, trace, smoke bool) (result, reportLine) {
	t.Helper()
	var out bytes.Buffer
	runOne(&out, w, seed, 0.05, trace, smoke, t.TempDir())
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: want a report and a result line, got %q", w.name, out.String())
	}
	var res result
	var rep reportLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: result line: %v", w.name, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
		t.Fatalf("%s: report line: %v", w.name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s (trace %v): correct=%v attempted=%d failed=%d problems=%v",
			w.name, trace, res.Correct, res.Attempted, res.Failed, rep.Problems)
	}
	return res, rep
}

// countLayers are per-layer metrics that count work: a seed fixes them
// exactly.
var countLayers = []string{
	"fw.epochs", "fw.spf", "codec.plan_bytes", "state.copy_mb", "transition.rounds",
	"delta.wire_bytes", "lp.pivots", "lp.refactorizations", "cp.precomputes",
	"cp.cache.hit_ratio", "eval.shards",
}

// TestSmoke runs every workload at smoke size, untraced and traced, twice
// each with one seed. Every declared metric must be emitted, finite and
// with a unit; the seed must reproduce the plan digest, the MLU and the
// exact counters; and tracing must leave the plan byte-identical.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain1, prep1 := smoke(t, w, 3, false)
			plain2, prep2 := smoke(t, w, 3, false)
			traced1, trep1 := smoke(t, w, 3, true)
			traced2, _ := smoke(t, w, 3, true)

			for _, r := range []result{plain1, plain2} {
				assertMetrics(t, r, contractE2E)
			}
			for _, r := range []result{traced1, traced2} {
				assertMetrics(t, r, contractLayers)
			}

			digest := prep1.Notes["plan_digest"]
			if digest == nil || digest != prep2.Notes["plan_digest"] {
				t.Errorf("plan digest not reproduced: %v vs %v", digest, prep2.Notes["plan_digest"])
			}
			if got := trep1.Notes["plan_digest"]; got != digest {
				t.Errorf("traced run's plan digest %v, untraced %v", got, digest)
			}
			if a, b := plain1.Metrics["mlu"].Value, plain2.Metrics["mlu"].Value; a != b {
				t.Errorf("mlu not reproduced: %v vs %v", a, b)
			}
			for _, name := range countLayers {
				if a, b := traced1.Metrics[name].Value, traced2.Metrics[name].Value; a != b {
					t.Errorf("%s not reproduced: %v vs %v", name, a, b)
				}
			}
			if _, err := os.Stat(trep1.Notes["spans_file"].(string)); err != nil {
				t.Errorf("traced run wrote no span file: %v", err)
			}
		})
	}
}

func assertMetrics(t *testing.T, r result, defs []metricDef) {
	t.Helper()
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", d.name, m.Value)
		}
	}
}

// TestConsistencyGate checks, on full-size traced runs of the two
// workloads that have one, that the layer times add up to the end-to-end
// time within gateSlack. It is a consistency check, not a speed bound.
// It takes about two minutes on 2 CPUs.
func TestConsistencyGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size traced runs")
	}
	for _, name := range []string{"plan-generated", "rollout-abilene"} {
		w, _ := lookupWorkload(name)
		res, _ := run(t, w, 1, true, false)
		frac := res.Metrics["gate.layer_sum_frac"].Value
		if math.Abs(frac-1) > gateSlack {
			t.Errorf("%s: layer times sum to %.3f × the end-to-end time (slack %.2f)", name, frac, gateSlack)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the names this program
// emits in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("workload %s unknown to the program", w.Name)
		}
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json has %d %s metrics, the program %d", len(got), kind, len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], program %s [%s]",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end-to-end", spec.EndToEnd, contractE2E)
	same("per-layer", spec.PerLayer, contractLayers)
}
