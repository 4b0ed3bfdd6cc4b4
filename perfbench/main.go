// Command perfbench is the benchmark of the R3 operator path: topology
// and traffic in → base routing (mcf) → protection (FW) → verify →
// transition schedule and certify LP → wire bytes → served by r3d.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload plan-generated --seed 1 --seconds 10 --trace 0
//
// Each run prints a report line (every workload-specific metric with its
// unit and sample count, the correctness checks and the machine record)
// and, as its last line, one JSON object {correct, attempted, failed,
// metrics}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run instead times the calls into each layer from this package and reads
// the counters internal/obs already keeps, and prints the per-layer
// metrics. See README.md for the workloads, the metric table and the
// known defects.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

// DefaultSeed is the seed used while the benchmark was written and tuned;
// HeldOutSeed lies outside the seeds 1–30 of the tuning and steadiness
// runs, and is the seed a performance claim must also hold on (README.md,
// "Seeds").
const (
	DefaultSeed = 1
	HeldOutSeed = 97
)

// workload is one benchmark workload: set-up, the untraced end-to-end
// measurement and the traced per-layer measurement.
type workload struct {
	name string
	why  string
	run  func(b *bench)
}

var workloads = []workload{
	{"plan-generated", "cold plan builds on the 100-node topology: mcf and the FW protection loop do almost all the work", runPlan},
	{"failover-generated", "online reconfiguration and the failure audit on a precomputed 100-node plan; mcf and FW stay in set-up", runFailover},
	{"rollout-abilene", "r3d over loopback HTTP: open-loop reads beside traffic writes that publish certified plan swaps", runRollout},
	{"compare-sbc", "the evaluation engine over all single and paired duplex failures of SBC, five schemes plus the optimal baseline", runCompare},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named is one workload-specific metric in the report line, with the number of
// samples it summarizes.
type named struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// bench carries one run's options and collects its results.
type bench struct {
	workload string
	why      string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	workers  int
	traceDir string

	// reg and spans are live only in traced runs; nil handles are no-ops.
	reg   *obs.Registry
	spans *obs.Trace

	// stealAt and ticksAt are cpuTicks at the run's start.
	stealAt, ticksAt int64

	attempted int
	failed    int
	problems  []string

	e2e    map[string]metric
	layers map[string]metric
	report map[string]named
	notes  map[string]any
}

func newBench(name string, seed int64, seconds float64, trace, smoke bool) *bench {
	b := &bench{
		workload: name,
		seed:     seed,
		seconds:  seconds,
		trace:    trace,
		smoke:    smoke,
		workers:  runtime.NumCPU(),
		e2e:      map[string]metric{},
		layers:   map[string]metric{},
		report:   map[string]named{},
		notes:    map[string]any{},
	}
	if trace {
		b.reg = obs.NewRegistry()
		b.spans = b.reg.Trace("perfbench")
	}
	b.stealAt, b.ticksAt, _ = cpuTicks()
	return b
}

// check records a failed correctness check.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted operation and whether it failed.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.problems) < 20 {
			b.problems = append(b.problems, err.Error())
		}
	}
}

func (b *bench) setE2E(name, unit string, v float64)   { b.e2e[name] = metric{v, unit} }
func (b *bench) setLayer(name, unit string, v float64) { b.layers[name] = metric{v, unit} }
func (b *bench) named(name, unit string, v float64, n int) {
	b.report[name] = named{v, unit, n}
}

// span opens a benchmark span around one call into a layer; a no-op in
// untraced runs.
func (b *bench) span(name string) obs.Span { return b.spans.Start(name) }

// more reports whether a measurement loop that has done n repetitions
// since start should run another: until the run's seconds have passed and
// at least min repetitions are done.
func (b *bench) more(start time.Time, n, min int) bool {
	return n < min || time.Since(start).Seconds() < b.seconds
}

// contractE2E and contractLayers are the metrics BENCHMARK.json declares,
// in its order; every run emits all of its mode's metrics.
var contractE2E = []metricDef{{"setup_s", "s"}, {"task_s", "s"}, {"op_p50_ms", "ms"}, {"mlu", "ratio"}}

var contractLayers = []metricDef{
	{"mcf.min_mlu_s", "s"}, {"core.protect_s", "s"}, {"fw.epochs", "count"}, {"fw.spf", "count"},
	{"par.protect_speedup", "x"}, {"par.eval_speedup", "x"},
	{"spf.repair_ratio", "ratio"}, {"spf.dirty_frac_mean", "%"},
	{"codec.encode_ms", "ms"}, {"codec.plan_bytes", "bytes"},
	{"state.new_ms", "ms"}, {"state.apply_ms", "ms"}, {"state.mlu_ms", "ms"}, {"state.copy_mb", "MB"},
	{"verify.scenarios_per_s", "1/s"},
	{"transition.schedule_ms", "ms"}, {"transition.rounds", "count"},
	{"transition.planswap_cold_ms", "ms"}, {"transition.planswap_warm_ms", "ms"},
	{"mcf.exact_ms", "ms"}, {"lp.pivots", "count"}, {"lp.refactorizations", "count"}, {"lp.warm_ratio", "ratio"},
	{"mplsff.build_ms", "ms"}, {"mplsff.diff_ms", "ms"}, {"delta.wire_bytes", "bytes"},
	{"cp.handler_plan_us", "us"}, {"cp.handler_scenario_us", "us"},
	{"cp.cache.hit_ratio", "ratio"}, {"cp.precomputes", "count"}, {"cp.admit.limited", "count"}, {"cp.rollout_errors", "count"},
	{"protect.ospf_recon_ms", "ms"}, {"protect.cspf_detour_ms", "ms"}, {"protect.fcp_ms", "ms"},
	{"protect.pathsplice_ms", "ms"}, {"protect.optimal_ms", "ms"},
	{"eval.r3_ms", "ms"}, {"eval.shards", "count"},
	{"gate.layer_sum_frac", "ratio"},
	{"obs.overhead_frac", "ratio"},
}

type metricDef struct{ name, unit string }

// finish fills layer metrics the workload does not reach with 0 (README:
// "0 means the workload does not reach that layer"), reads the obs
// counters, writes the span file and prints the two output lines to out.
func (b *bench) finish(out io.Writer) {
	if b.trace {
		b.layersFromCounters()
		for _, l := range contractLayers {
			if _, ok := b.layers[l.name]; !ok {
				b.layers[l.name] = metric{0, l.unit}
			}
		}
		if path, err := b.writeSpans(); err != nil {
			b.check(false, "write spans: %v", err)
		} else {
			b.notes["spans_file"] = path
		}
	}
	metrics, want := b.e2e, contractE2E
	if b.trace {
		metrics, want = b.layers, contractLayers
	}
	for _, d := range want {
		m, ok := metrics[d.name]
		b.check(ok, "metric %s not measured", d.name)
		b.check(!ok || !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0), "metric %s is not finite: %v", d.name, m.Value)
	}
	if b.attempted == 0 {
		b.attempted = 1
		b.failed = 1
		b.check(false, "no operation attempted")
	}
	correct := len(b.problems) == 0 && b.failed == 0
	b.named("op_fail_frac", "ratio", float64(b.failed)/float64(b.attempted), b.attempted)

	machine := machineRecord()
	// The share of the machine's CPU time the hypervisor gave to other
	// guests during the run: a run on a shared host that reads slow with
	// a high steal share was slowed by its neighbours, not by the code.
	if steal, ticks, ok := cpuTicks(); ok && ticks > b.ticksAt {
		machine["cpu_steal_frac"] = float64(steal-b.stealAt) / float64(ticks-b.ticksAt)
	}
	rep := map[string]any{
		"workload": b.workload,
		"why":      b.why,
		"seed":     b.seed,
		"seconds":  b.seconds,
		"trace":    b.trace,
		"smoke":    b.smoke,
		"machine":  machine,
		"metrics":  b.report,
		"notes":    b.notes,
		"problems": b.problems,
	}
	line, _ := json.Marshal(rep)
	fmt.Fprintln(out, string(line))

	line, _ = json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metrics,
	})
	fmt.Fprintln(out, string(line))
}

// layersFromCounters derives the lp, eval and cp layer metrics from the
// counters of the traced run's registry. (The fw and spf counters come
// from the one protection solve splitBuild traces on a registry of its
// own, and transition.rounds from the probe's schedules.)
func (b *bench) layersFromCounters() {
	c := b.reg.Snapshot().Counters
	if c["lp.solves"] > 0 {
		b.setLayer("lp.pivots", "count", float64(c["lp.pivots"]))
		b.setLayer("lp.refactorizations", "count", float64(c["lp.refactorizations"]))
		b.setLayer("lp.warm_ratio", "ratio", float64(c["lp.warm_starts"])/float64(c["lp.solves"]))
	}
	if v, ok := c["eval.shards"]; ok {
		b.setLayer("eval.shards", "count", float64(v))
	}
	if hits, misses := c["cp.cache.hits"], c["cp.cache.misses"]; hits+misses > 0 {
		b.setLayer("cp.cache.hit_ratio", "ratio", float64(hits)/float64(hits+misses))
		b.setLayer("cp.precomputes", "count", float64(c["cp.precomputes"]))
		b.setLayer("cp.admit.limited", "count", float64(c["cp.admit.limited"]))
		b.setLayer("cp.rollout_errors", "count", float64(c["cp.rollout_errors"]))
	}
}

// writeSpans writes the traced run's registry (counters and span trees)
// as JSON under the trace directory.
func (b *bench) writeSpans() (string, error) {
	if err := os.MkdirAll(b.traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(b.traceDir, fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
	return path, obs.WriteTraceFile(path, b.reg)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or \"all\" to run every workload in turn")
		seed    = flag.Int64("seed", DefaultSeed, fmt.Sprintf("input seed (%d is held out for checking claims)", HeldOutSeed))
		seconds = flag.Float64("seconds", 10, "measurement time per run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	// Span files go under the build directory run.py builds into.
	traceDir := os.Getenv("CARGO_TARGET_DIR")
	if traceDir == "" {
		traceDir = ".bench_build"
	}
	traceDir = filepath.Join(traceDir, "traces")
	if *name == "all" {
		for _, w := range workloads {
			runOne(os.Stdout, w, *seed, *seconds, *trace == 1, false, traceDir)
		}
		return
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *name, names)
		os.Exit(2)
	}
	runOne(os.Stdout, w, *seed, *seconds, *trace == 1, false, traceDir)
}

// runOne runs one workload and prints its report and result lines to out.
// smoke selects tiny inputs; only the tests set it.
func runOne(out io.Writer, w workload, seed int64, seconds float64, trace, smoke bool, traceDir string) {
	b := newBench(w.name, seed, seconds, trace, smoke)
	b.why = w.why
	b.traceDir = traceDir
	w.run(b)
	if !trace {
		b.named("peak_rss_mb", "MB", peakRSSMB(), 1)
	}
	b.finish(out)
}
