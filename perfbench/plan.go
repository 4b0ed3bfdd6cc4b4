package main

import (
	"bytes"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/topo"
)

// Each run repeats its set-up at least setupReps times, and cheap set-ups
// until setupBudget seconds are spent (at most setupMaxReps times);
// setup_s is the median.
const (
	setupReps    = 3
	setupBudget  = 0.5
	setupMaxReps = 200
)

// planMatrices is how many seeded matrices one plan-generated run builds
// plans for, in turn: the base routing's convergence, and so the build
// time, differs between matrices, and a run that covers several of them
// reports a steadier median.
const planMatrices = 4

// roundTrips is how many codec round trips follow each build.
const roundTrips = 5

// generatedInputs are the plan-generated and failover-generated inputs
// for the run's k-th matrix: topo.Generated() (100 nodes, 460 links,
// 9,900 ODs) with gravity demand at 15% of capacity, F=1, penalty
// envelope 1.1, effort 100. Smoke runs use Abilene at effort 30.
func generatedInputs(b *bench, k int) planInputs {
	g, iters := topo.Generated(), 100
	if b.smoke {
		g, iters = topo.Abilene(), 30
	}
	return planInputs{
		g: g,
		d: seededDemand(g, 0.15, b.seed*1000+int64(k)),
		cfg: core.Config{
			Model:           core.ArbitraryFailures{F: 1},
			Iterations:      iters,
			PenaltyEnvelope: 1.1,
			Workers:         b.workers,
		},
	}
}

// setup repeats fn, passing it the repetition's index, reports the median
// time as setup_s and returns the first repetition's value.
func setup[T any](b *bench, fn func(rep int) T) T {
	var out T
	var secs []float64
	total := 0.0
	for i := 0; i < setupReps || total < setupBudget && i < setupMaxReps; i++ {
		sp := b.span("setup")
		secs = append(secs, timed(func() {
			if v := fn(i); i == 0 {
				out = v
			}
		}))
		sp.End()
		total += secs[i]
	}
	b.setE2E("setup_s", "s", median(secs))
	b.named("setup_s", "s", median(secs), len(secs))
	return out
}

// runPlan is plan-generated: cold plan builds (Precompute then
// EncodeBytes) for planMatrices seeded matrices in turn, each followed by
// roundTrips codec round trips of its bytes.
func runPlan(b *bench) {
	ins := setup(b, func(int) []planInputs {
		ins := make([]planInputs, planMatrices)
		for k := range ins {
			ins[k] = generatedInputs(b, k)
		}
		return ins
	})
	if b.trace {
		tracePlan(b, ins[0])
		return
	}
	var buildS, tripMS, mlus []float64
	digests := make([]string, planMatrices)
	start := time.Now()
	for n := 0; b.more(start, n, planMatrices); n++ {
		k := n % planMatrices
		in := ins[k]
		var plan *core.Plan
		var raw []byte
		var err error
		runtime.GC()
		buildS = append(buildS, timed(func() { plan, raw, err = in.build(in.cfg) }))
		b.op(err)
		if err != nil {
			continue
		}
		if n < planMatrices {
			b.checkPlan(plan)
			mlus = append(mlus, plan.MLU)
			digests[k] = digest(raw)
		}
		b.check(digest(raw) == digests[k], "build %d of matrix %d differs from its first build", n, k)
		for i := 0; i < roundTrips; i++ {
			runtime.GC()
			tripMS = append(tripMS, 1e3*timed(func() { err = roundTrip(in.g, raw) }))
			b.op(err)
		}
	}
	b.setE2E("task_s", "s", median(buildS))
	b.setE2E("op_p50_ms", "ms", median(tripMS))
	b.setE2E("mlu", "ratio", median(mlus))
	b.named("plan_s", "s", median(buildS), len(buildS))
	b.named("plan_mlu", "ratio", median(mlus), len(mlus))
	b.named("codec_roundtrip_p50_ms", "ms", median(tripMS), len(tripMS))
	b.named("codec_roundtrip_max_ms", "ms", maxOf(tripMS), len(tripMS))
	b.notes["plan_digest"] = digests[0]
	b.notes["plan_s_samples"] = buildS
}

// checkPlan asserts what every served plan must satisfy: finite positive
// MLUs, and a normal-case MLU no worse than the protected one.
func (b *bench) checkPlan(p *core.Plan) {
	b.check(p.MLU > 0 && !math.IsInf(p.MLU, 0) && !math.IsNaN(p.MLU), "plan MLU %v is not finite and positive", p.MLU)
	b.check(p.NormalMLU > 0 && p.NormalMLU <= p.MLU+1e-9, "normal MLU %v outside (0, MLU %v]", p.NormalMLU, p.MLU)
}

// roundTrip decodes wire bytes the way a router loading the plan does and
// checks the decoded plan re-encodes to the same bytes.
func roundTrip(g *graph.Graph, raw []byte) error {
	p, err := core.DecodePlan(bytes.NewReader(raw), g)
	if err != nil {
		return err
	}
	again, err := p.EncodeBytes()
	if err != nil {
		return err
	}
	if !bytes.Equal(again, raw) {
		return errRoundTrip
	}
	return nil
}

// tracePlan is plan-generated's traced run: a warm-up build, a traced and
// an untraced build (tracing overhead, and the plan must not change), the
// layer split checked against the median build time, and the plan-level
// layer probes.
func tracePlan(b *bench, in planInputs) {
	var plan *core.Plan
	var raw, traced, again []byte
	var err error
	runtime.GC()
	warmS := timed(func() { plan, raw, err = in.build(in.cfg) })
	b.op(err)
	if err != nil {
		return
	}
	b.notes["plan_digest"] = digest(raw)
	cfg := in.cfg
	cfg.Obs = b.reg
	runtime.GC()
	sp := b.span("build(traced)")
	tracedS := timed(func() { _, traced, err = in.build(cfg) })
	sp.End()
	b.op(err)
	runtime.GC()
	untracedS := timed(func() { _, again, err = in.build(in.cfg) })
	b.op(err)
	b.check(bytes.Equal(traced, raw), "tracing changed the plan bytes")
	b.check(bytes.Equal(again, raw), "a repeated build changed the plan bytes")
	b.setLayer("obs.overhead_frac", "ratio", tracedS/untracedS-1)

	nSingles, nPairs := 30, 3
	if b.smoke {
		nSingles, nPairs = 10, 2
	}
	ls := b.probePlanLayers(in, plan, raw, nSingles, nPairs)
	planS := median([]float64{warmS, tracedS, untracedS})
	b.gate("plan-generated", ls.mcfS+ls.protectS+ls.encodeS, planS)
	b.named("plan_s", "s", planS, 3)
}

// gateSlack is the consistency gate's stated slack: the layer times of a
// build must add up to the end-to-end time within ±gateSlack of it. The
// gate holds the run to it only when the end-to-end time is at least
// gateMinSeconds; below that (smoke inputs) scheduling and collection
// swamp the layers and the ratio is only recorded.
const (
	gateSlack      = 0.25
	gateMinSeconds = 1.0
)

// gate records the layer-sum ÷ end-to-end ratio and fails the run when it
// leaves [1-gateSlack, 1+gateSlack]. It checks that the per-layer split
// accounts for the end-to-end time; it is not a speed bound.
func (b *bench) gate(what string, layerSum, total float64) {
	frac := layerSum / total
	b.setLayer("gate.layer_sum_frac", "ratio", frac)
	b.check(total < gateMinSeconds || math.Abs(frac-1) <= gateSlack,
		"consistency gate (%s): layer times sum to %.3fs against %.3fs end to end (ratio %.3f, slack %.2f)",
		what, layerSum, total, frac, gateSlack)
}
