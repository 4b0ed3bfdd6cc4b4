package main

import (
	"bytes"
	"math/rand"
	"runtime"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/mplsff"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/traffic"
	"repro/internal/transition"
)

// planInputs is what every workload's plan is built from.
type planInputs struct {
	g   *graph.Graph
	d   *traffic.Matrix
	cfg core.Config
}

// baseIterations is the mcf.MinMLU effort Precompute uses for the base
// routing under a penalty envelope (internal/core, solveFW).
const baseIterations = 300

// build runs one cold plan build: Precompute, then the wire encoding.
func (in planInputs) build(cfg core.Config) (*core.Plan, []byte, error) {
	plan, err := core.Precompute(in.g, in.d, cfg)
	if err != nil {
		return nil, nil, err
	}
	raw, err := plan.EncodeBytes()
	return plan, raw, err
}

// layerSplit times a plan build layer by layer: mcf.MinMLU on the plan's
// OD commodities, then the FW protection solve with the base routing
// pinned to that result, then the encoding. The pinned solve must give
// the full build's bytes, so the three calls are the build, split.
type layerSplit struct {
	mcfS, protectS, encodeS float64
	base                    *routing.Flow
}

// splitReps is how many times splitBuild times the two solves; it reports
// the medians, since the consistency gate sets their sum against a build.
const splitReps = 2

func (b *bench) splitBuild(in planInputs, want []byte) layerSplit {
	var ls layerSplit
	comms := routing.ODCommodities(in.g.NumNodes(), in.d.At)
	// A registry of its own, so the fw/spf counters describe exactly one
	// protection solve whatever else the workload traced.
	preg := obs.NewRegistry()
	var mcfS, protectS []float64
	var plan *core.Plan
	var err error
	for i := 0; i < splitReps; i++ {
		runtime.GC()
		sp := b.span("mcf.MinMLU")
		mcfS = append(mcfS, timed(func() {
			ls.base = mcf.MinMLU(in.g, comms, mcf.Options{Iterations: baseIterations}).Flow
		}))
		sp.End()

		cfg := in.cfg
		cfg.BaseRouting = ls.base
		if i == 0 {
			cfg.Obs = preg
		}
		runtime.GC()
		sp = b.span("core.Precompute(pinned base)")
		protectS = append(protectS, timed(func() { plan, err = core.Precompute(in.g, in.d, cfg) }))
		sp.End()
		b.op(err)
		if err != nil {
			return ls
		}
	}
	ls.mcfS, ls.protectS = median(mcfS), median(protectS)
	var raw []byte
	sp := b.span("core.Plan.EncodeBytes")
	ls.encodeS = timed(func() { raw, err = plan.EncodeBytes() })
	sp.End()
	b.op(err)
	b.check(bytes.Equal(raw, want), "pinned-base protection solve changed the plan bytes")

	snap := preg.Snapshot()
	c := snap.Counters
	b.setLayer("fw.epochs", "count", float64(c["fw.epochs"]))
	b.setLayer("fw.spf", "count", float64(c["fw.spf"]))
	if rep, full := c["spf.incremental_repairs"], c["spf.full_fallbacks"]; rep+full > 0 {
		b.setLayer("spf.repair_ratio", "ratio", float64(rep)/float64(rep+full))
	}
	if h, ok := snap.Histograms["spf.dirty_frac"]; ok && h.Count > 0 {
		b.setLayer("spf.dirty_frac_mean", "%", h.Mean())
	}
	b.setLayer("mcf.min_mlu_s", "s", ls.mcfS)
	b.setLayer("core.protect_s", "s", ls.protectS)
	b.setLayer("codec.encode_ms", "ms", ls.encodeS*1e3)
	b.setLayer("codec.plan_bytes", "bytes", float64(len(raw)))
	return ls
}

// probePlanLayers times the plan-level layers every workload's plan goes
// through: the layer split of its build, the serial/parallel protection
// ratio, the online State, the verify loop, the failure-activation
// scheduler and the MPLS-ff tables. nSingles and nPairs size the samples.
func (b *bench) probePlanLayers(in planInputs, plan *core.Plan, raw []byte, nSingles, nPairs int) layerSplit {
	ls := b.splitBuild(in, raw)
	if ls.base == nil {
		return ls
	}

	// par: the protection solve at one worker against nproc workers.
	cfg := in.cfg
	cfg.BaseRouting = ls.base
	cfg.Workers = 1
	var serial *core.Plan
	var err error
	sp := b.span("core.Precompute(pinned base, 1 worker)")
	serialS := timed(func() { serial, err = core.Precompute(in.g, in.d, cfg) })
	sp.End()
	b.op(err)
	if err == nil {
		sraw, err := serial.EncodeBytes()
		b.op(err)
		b.check(bytes.Equal(sraw, raw), "worker count changed the plan bytes")
		b.setLayer("par.protect_speedup", "x", serialS/ls.protectS)
	}

	// core.State: each call of one reconfiguration timed on its own.
	L := in.g.NumLinks()
	rng := rand.New(rand.NewSource(b.seed*7919 + 11))
	singles := rng.Perm(L)
	if nSingles < L {
		singles = singles[:nSingles]
	}
	var newMS, applyMS, mluMS []float64
	for _, e := range singles {
		var st *core.State
		sp := b.span("core.NewState")
		newMS = append(newMS, 1e3*timed(func() { st = core.NewState(plan) }))
		sp.End()
		sc := core.FailureScenario(graph.NewLinkSet(graph.LinkID(e)))
		sp = b.span("core.State.ApplyScenario")
		applyMS = append(applyMS, 1e3*timed(func() { err = st.ApplyScenario(sc) }))
		sp.End()
		b.op(err)
		sp = b.span("core.State.MLU")
		mluMS = append(mluMS, 1e3*timed(func() { st.MLU() }))
		sp.End()
	}
	b.setLayer("state.new_ms", "ms", median(newMS))
	b.setLayer("state.apply_ms", "ms", median(applyMS))
	b.setLayer("state.mlu_ms", "ms", median(mluMS))
	K := len(plan.Base.Comms)
	b.setLayer("state.copy_mb", "MB", float64(K*L+L*L)*8/1e6)

	scs := make([]core.Scenario, len(singles))
	for i, e := range singles {
		scs[i] = core.FailureScenario(graph.NewLinkSet(graph.LinkID(e)))
	}
	sp = b.span("core.Plan.VerifyScenarios")
	verifyS := timed(func() { _, err = plan.VerifyScenarios(scs) })
	sp.End()
	b.op(err)
	b.setLayer("verify.scenarios_per_s", "1/s", float64(len(scs))/verifyS)

	// transition + mplsff: staged activation of seeded failure pairs.
	schedMS, rounds, first := b.stage(plan, rng, nPairs)
	b.setLayer("transition.schedule_ms", "ms", median(schedMS))
	b.setLayer("transition.rounds", "count", float64(rounds))

	var net *mplsff.Network
	sp = b.span("mplsff.Build")
	buildS := timed(func() { net = mplsff.Build(plan) })
	sp.End()
	b.setLayer("mplsff.build_ms", "ms", buildS*1e3)
	if first != nil {
		var delta *mplsff.Delta
		sp = b.span("mplsff.Diff")
		diffS := timed(func() { delta = mplsff.Diff(net, first.Final) })
		sp.End()
		b.setLayer("mplsff.diff_ms", "ms", diffS*1e3)
		b.setLayer("delta.wire_bytes", "bytes", float64(delta.WireSize()))
		// Applying the staged rounds to fresh tables must land on the
		// scheduler's final tables.
		replay := mplsff.Build(plan)
		for _, r := range first.Rounds {
			replay.ApplyRound(r.Seq, r.Delta)
		}
		b.check(replay.Fingerprint() == first.Final.Fingerprint(), "staged rounds do not reproduce the final MPLS-ff tables")
	}
	return ls
}

// stage schedules the activation of nPairs seeded failure pairs with
// transition.Schedule (SkipCertify: the certify LP cannot run at 100
// nodes, README.md "Findings") and reports stage_p50_ms. It returns the
// per-pair milliseconds, the rounds scheduled and the first sequence.
func (b *bench) stage(plan *core.Plan, rng *rand.Rand, nPairs int) ([]float64, int, *transition.Sequence) {
	var ms []float64
	rounds := 0
	var first *transition.Sequence
	for i := 0; i < nPairs; i++ {
		pair := seededPair(rng, plan.G)
		var seq *transition.Sequence
		var err error
		sp := b.span("transition.Schedule")
		ms = append(ms, 1e3*timed(func() {
			seq, err = transition.Schedule(plan, pair, transition.Options{SkipCertify: true, Obs: b.reg})
		}))
		sp.End()
		b.op(err)
		if err != nil {
			continue
		}
		rounds += len(seq.Rounds)
		if first == nil {
			first = seq
		}
	}
	b.named("stage_p50_ms", "ms", median(ms), len(ms))
	return ms, rounds, first
}

// seededPair draws two distinct links that are not one duplex pair.
func seededPair(rng *rand.Rand, g *graph.Graph) []graph.LinkID {
	for {
		a, c := rng.Intn(g.NumLinks()), rng.Intn(g.NumLinks())
		if a != c && g.Link(graph.LinkID(a)).Reverse != graph.LinkID(c) {
			return []graph.LinkID{graph.LinkID(a), graph.LinkID(c)}
		}
	}
}
