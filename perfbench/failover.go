package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// failoverState is failover-generated's set-up product.
type failoverState struct {
	in   planInputs
	plan *core.Plan
	raw  []byte
}

// runFailover is failover-generated: the plan is precomputed in set-up;
// the run audits every single failure with Plan.Verify(1,0), times the
// online reconfiguration (NewState + ApplyScenario + MLU) per failure of
// every other link, and stages two seeded failure pairs.
//
// Set-up repetition i precomputes the plan of the run's i-th matrix, as
// plan-generated builds several matrices: the base routing's convergence,
// and so the set-up time, differs between matrices, and the median over
// several is steadier. The run measures the first matrix's plan.
func runFailover(b *bench) {
	fs := setup(b, func(rep int) failoverState {
		in := generatedInputs(b, rep%planMatrices)
		plan, raw, err := in.build(in.cfg)
		b.op(err)
		return failoverState{in, plan, raw}
	})
	if fs.plan == nil {
		return
	}
	b.checkPlan(fs.plan)
	b.notes["plan_digest"] = digest(fs.raw)
	if b.trace {
		traceFailover(b, fs)
		return
	}
	L := fs.in.g.NumLinks()
	sample := failureSample(b, L)
	var auditS, reconfigMS, mlus []float64
	var worst float64
	start := time.Now()
	for n := 0; b.more(start, n, 1); n++ {
		// Half the reconfigurations run before the audit and half after,
		// so their median covers the run rather than a few seconds of it.
		half := len(sample) / 2
		runtime.GC()
		ms, sampleMLU := reconfigure(b, fs.plan, sample[:half])
		var rep *core.VerifyReport
		var err error
		runtime.GC()
		auditS = append(auditS, timed(func() { rep, err = fs.plan.Verify(1, 0) }))
		b.op(err)
		runtime.GC()
		ms2, mlu2 := reconfigure(b, fs.plan, sample[half:])
		reconfigMS = append(append(reconfigMS, ms...), ms2...)
		sampleMLU = append(sampleMLU, mlu2...)
		mlus = sampleMLU
		if err != nil {
			continue
		}
		b.check(rep.Scenarios == L, "audit checked %d scenarios, want %d", rep.Scenarios, L)
		worst = rep.WorstMLU
		b.check(maxOf(sampleMLU) <= rep.WorstMLU, "sampled failure MLU %v above the audit's worst %v", maxOf(sampleMLU), rep.WorstMLU)
		// The audit's worst scenario, replayed alone, must reproduce its MLU.
		st := core.NewState(fs.plan)
		b.op(st.ApplyScenario(rep.Worst))
		b.check(st.MLU() == rep.WorstMLU, "worst scenario replays to MLU %v, audit said %v", st.MLU(), rep.WorstMLU)
	}
	b.setE2E("task_s", "s", median(auditS))
	b.setE2E("op_p50_ms", "ms", median(reconfigMS))
	b.setE2E("mlu", "ratio", median(mlus))
	b.named("audit_s", "s", median(auditS), len(auditS))
	b.named("reconfig_p50_ms", "ms", median(reconfigMS), len(reconfigMS))
	b.named("reconfig_p95_ms", "ms", quantile(reconfigMS, 0.95), len(reconfigMS))
	b.named("audit_worst_mlu", "ratio", worst, len(auditS))
	b.named("reconfig_mlu_p50", "ratio", median(mlus), len(mlus))
	// Staging is reported, not bounded: a pair takes 0.3–6 s depending on
	// whether it needs an LP interim detour (README.md, "Findings").
	b.stage(fs.plan, rand.New(rand.NewSource(b.seed*7919+11)), 2)
}

// failureSample is the single-failure sample timed per failure: every
// other link of generated (230, 11 samples beyond the p95), every link on
// smoke inputs. It is fixed, so its median MLU moves only with the plan.
func failureSample(b *bench, L int) []graph.LinkID {
	step := 2
	if b.smoke {
		step = 1
	}
	var out []graph.LinkID
	for e := 0; e < L; e += step {
		out = append(out, graph.LinkID(e))
	}
	return out
}

// reconfigure times NewState + ApplyScenario + MLU for each failure and
// returns the per-failure milliseconds and post-failure MLUs.
func reconfigure(b *bench, plan *core.Plan, failures []graph.LinkID) (ms, mlus []float64) {
	for _, e := range failures {
		sc := core.FailureScenario(graph.NewLinkSet(e))
		var mlu float64
		var err error
		sp := b.span("reconfigure")
		ms = append(ms, 1e3*timed(func() {
			st := core.NewState(plan)
			if err = st.ApplyScenario(sc); err == nil {
				mlu = st.MLU()
			}
		}))
		sp.End()
		b.op(err)
		mlus = append(mlus, mlu)
	}
	return ms, mlus
}

// traceFailover is failover-generated's traced run: the reconfiguration
// sample untraced then with a span per failure (tracing overhead), and
// the plan-level layer probes, which include the staged activation of
// seeded failure pairs (stage_p50_ms).
func traceFailover(b *bench, fs failoverState) {
	sample := failureSample(b, fs.in.g.NumLinks())
	if len(sample) > 100 {
		sample = sample[:100]
	}
	spans := b.spans
	b.spans = nil
	untraced, _ := reconfigure(b, fs.plan, sample)
	b.spans = spans
	traced, _ := reconfigure(b, fs.plan, sample)
	b.setLayer("obs.overhead_frac", "ratio", median(traced)/median(untraced)-1)

	nSingles, nPairs := 30, 4
	if b.smoke {
		nSingles, nPairs = 10, 2
	}
	b.probePlanLayers(fs.in, fs.plan, fs.raw, nSingles, nPairs)
}
