package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/mcf"
	"repro/internal/mplsff"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
	"repro/internal/transition"
)

// pollInterval is how often each router of the topology reads from r3d.
// The open loop sends one read per router per interval (11/s on
// Abilene), alternating GET /v1/plan and GET /v1/scenario. Neither the
// paper nor the repository states a poll rate: the one-second interval
// and the even split are this benchmark's assumptions (README.md,
// "Assumptions").
const pollInterval = time.Second

// publishTimeout bounds the wait for a write to be served.
const publishTimeout = 60 * time.Second

// minPublishes is the least number of traffic writes a window waits for:
// every publish carries a cold certify LP of several seconds on Abilene
// (README.md, "Findings"), so a window is longer than the run's seconds.
const minPublishes = 3

// writeKind classifies a step of the write sequence.
type writeKind int

const (
	writeFresh    writeKind = iota // a new matrix: cache miss, precompute plus certified swap
	writeRepost                    // an earlier matrix again: cache hit, certified swap only
	writeRollback                  // POST /v1/rollback to the revision two writes back
)

// writeCycle is the fixed write sequence, repeated; only the matrices
// come from the seed. It holds each write kind once, plus the second
// fresh matrix a re-post needs: a re-post sends the matrix before the
// active one, cached but not served. The mix is an assumption, as the
// read rate is.
var writeCycle = []writeKind{writeFresh, writeRollback, writeFresh, writeRepost}

// abileneInputs are rollout-abilene's inputs: Abilene (11 nodes, 28
// links) with gravity demand at 15% of capacity and r3d's defaults, F=1,
// penalty envelope 1.1, effort 200. Smoke runs use an 8-node mesh, where
// the certify LP takes a fraction of a second.
func abileneInputs(b *bench) planInputs {
	g, iters := topo.Abilene(), 200
	if b.smoke {
		g, iters = topo.Mesh("mesh8", 8, 24, 1, 1000), 60
	}
	return planInputs{
		g: g,
		d: seededDemand(g, 0.15, b.seed),
		cfg: core.Config{
			Model:           core.ArbitraryFailures{F: 1},
			Iterations:      iters,
			PenaltyEnvelope: 1.1,
			Workers:         b.workers,
		},
	}
}

// rig is one in-process r3d behind a loopback HTTP server, with one
// connection for reads and one for writes.
type rig struct {
	b      *bench
	in     planInputs
	srv    *controlplane.Server
	ts     *httptest.Server
	reader *http.Client
	writer *http.Client

	fresh   int            // fresh matrices posted so far
	bodies  [][]byte       // posted matrix bodies, in order
	digests map[int]string // body index → digest served for it
	revs    []int64        // revisions published by writes, in order
	rev     int64          // last revision seen served
	// firstMLU and firstDigest describe the initial plan: fixed by the
	// seed, so the MLU guards plan quality.
	firstMLU    float64
	firstDigest string
}

func oneConnClient() *http.Client {
	return &http.Client{
		Timeout: publishTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// newRig starts r3d on the initial matrix and waits until it serves.
func newRig(b *bench, in planInputs, reg *obs.Registry) (*rig, error) {
	srv, err := controlplane.New(controlplane.Config{Graph: in.g, Traffic: in.d, Precompute: in.cfg, Obs: reg})
	if err != nil {
		return nil, err
	}
	r := &rig{
		b: b, in: in, srv: srv,
		ts:      httptest.NewServer(srv.Handler()),
		reader:  oneConnClient(),
		writer:  oneConnClient(),
		digests: map[int]string{},
	}
	r.rev, _, err = r.served()
	if err != nil {
		r.close()
		return nil, err
	}
	r.revs = []int64{r.rev}
	r.firstMLU = srv.Active().Plan.MLU
	r.firstDigest = fmt.Sprintf("%016x", srv.Active().Digest)
	return r, nil
}

func (r *rig) close() {
	r.ts.Close()
	r.srv.Close()
	r.reader.CloseIdleConnections()
	r.writer.CloseIdleConnections()
}

// freshMatrix is the seeded i-th fresh matrix of the write sequence.
func (r *rig) freshMatrix(i int) *traffic.Matrix {
	return seededDemand(r.in.g, 0.15, r.b.seed*1_000_003+int64(i)+1)
}

// served returns the revision and digest /v1/plan serves now.
func (r *rig) served() (int64, string, error) {
	resp, err := r.writer.Head(r.ts.URL + "/v1/plan")
	if err != nil {
		return 0, "", err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, "", fmt.Errorf("HEAD /v1/plan: %s", resp.Status)
	}
	id, err := strconv.ParseInt(resp.Header.Get("X-R3-Revision"), 10, 64)
	return id, resp.Header.Get("X-R3-Digest"), err
}

// write performs one step of the write sequence and returns its latency:
// for a traffic write from the 202 until /v1/plan serves a newer revision
// (the publish latency), for a rollback the synchronous request.
func (r *rig) write(kind writeKind) (float64, error) {
	if kind == writeRollback {
		start := time.Now()
		err := r.rollback()
		return time.Since(start).Seconds(), err
	}
	var body []byte
	idx := len(r.bodies)
	if kind == writeFresh {
		var buf bytes.Buffer
		if err := traffic.FormatMatrix(&buf, r.freshMatrix(r.fresh), r.in.g.Node); err != nil {
			return 0, err
		}
		r.fresh++
		body = buf.Bytes()
	} else {
		// The fresh matrix before the active one: cached, not active.
		idx = len(r.bodies) - 2
		body = r.bodies[idx]
	}
	resp, err := r.writer.Post(r.ts.URL+"/v1/traffic", "text/plain", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("POST /v1/traffic: %s", resp.Status)
	}
	accepted := time.Now()
	for {
		id, dg, err := r.served()
		if err != nil {
			return 0, err
		}
		if id > r.rev {
			lat := time.Since(accepted).Seconds()
			r.rev = id
			r.revs = append(r.revs, id)
			if kind == writeFresh {
				r.bodies = append(r.bodies, body)
				r.digests[idx] = dg
			} else if want := r.digests[idx]; dg != want {
				return lat, fmt.Errorf("re-posted matrix served digest %s, first served as %s", dg, want)
			}
			return lat, nil
		}
		if time.Since(accepted) > publishTimeout {
			return 0, fmt.Errorf("write not served within %v", publishTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// rollback restores the revision published two writes back and checks
// /v1/plan serves its bytes.
func (r *rig) rollback() error {
	if len(r.revs) < 2 {
		return fmt.Errorf("rollback needs two published revisions")
	}
	target := r.revs[len(r.revs)-2]
	resp, err := r.writer.Get(r.ts.URL + "/v1/plan?rev=" + strconv.FormatInt(target, 10))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	want := resp.Header.Get("X-R3-Digest")
	resp, err = r.writer.Post(r.ts.URL+"/v1/rollback?rev="+strconv.FormatInt(target, 10), "application/json", nil)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/rollback: %s", resp.Status)
	}
	id, dg, err := r.served()
	if err != nil {
		return err
	}
	if dg != want {
		return fmt.Errorf("rollback to revision %d serves digest %s, want %s", target, dg, want)
	}
	r.rev = id
	r.revs = append(r.revs, id)
	return nil
}

// waitUntil returns at t. Go's timers wake up to a millisecond late on
// Linux, which would swamp sub-millisecond reads, so it sleeps to within
// spinWindow of t and yields until t.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

const spinWindow = 1500 * time.Microsecond

// window is one measurement window of rollout-abilene.
type window struct {
	planMS   []float64 // GET /v1/plan latencies
	whatIfMS []float64 // GET /v1/scenario latencies
	lateMS   []float64
	publish  map[string][]float64 // by write class: miss, hit
	writeS   float64              // every write's latency, rollbacks too, summed
	attempts int
	failures int
}

func (w *window) allPublishes() []float64 {
	var out []float64
	for _, v := range w.publish {
		out = append(out, v...)
	}
	return out
}

// measure runs open-loop reads on one connection beside the write
// sequence on the other, for the run's seconds and at least minPublishes
// traffic writes.
func (r *rig) measure(seconds float64) *window {
	w := &window{publish: map[string][]float64{}}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var mu sync.Mutex
	stop := make(chan struct{})
	fail := func(err error) {
		mu.Lock()
		w.attempts++
		if err != nil {
			w.failures++
			r.b.check(false, "%v", err)
		}
		mu.Unlock()
	}
	routers := time.Duration(r.in.g.NumNodes())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(r.b.seed*7 + 5))
		start := time.Now()
		// The first two reads, one of each kind, are always sent.
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * pollInterval / routers)
			if i >= 2 {
				select {
				case <-stop:
					return
				default:
				}
			}
			waitUntil(due)
			sent := time.Now()
			var err error
			lat := &w.planMS
			if i%2 == 0 {
				err = r.readPlan()
			} else {
				err = r.readScenario(rng.Intn(r.in.g.NumLinks()))
				lat = &w.whatIfMS
			}
			done := time.Now()
			mu.Lock()
			*lat = append(*lat, done.Sub(due).Seconds()*1e3)
			w.lateMS = append(w.lateMS, sent.Sub(due).Seconds()*1e3)
			mu.Unlock()
			fail(err)
		}
	}()
	published := 0
	for step := 0; time.Now().Before(deadline) || published < minPublishes; step++ {
		kind := writeCycle[step%len(writeCycle)]
		lat, err := r.write(kind)
		fail(err)
		if err != nil {
			break
		}
		w.writeS += lat
		if kind != writeRollback {
			class := "miss"
			if kind == writeRepost {
				class = "hit"
			}
			w.publish[class] = append(w.publish[class], lat)
			published++
		}
	}
	close(stop)
	wg.Wait()
	return w
}

func (r *rig) readPlan() error {
	resp, err := r.reader.Get(r.ts.URL + "/v1/plan")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/plan: %s", resp.Status)
	}
	if got, want := digest(body), resp.Header.Get("X-R3-Digest"); got != want {
		return fmt.Errorf("GET /v1/plan: torn read, body digest %s, header %s", got, want)
	}
	return nil
}

func (r *rig) readScenario(link int) error {
	resp, err := r.reader.Get(r.ts.URL + "/v1/scenario?links=" + strconv.Itoa(link))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var out struct {
		MLU      *float64 `json:"mlu"`
		Revision int64    `json:"revision"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/scenario: %s", resp.Status)
	}
	if out.MLU == nil || math.IsNaN(*out.MLU) || math.IsInf(*out.MLU, 0) || *out.MLU <= 0 {
		return fmt.Errorf("GET /v1/scenario?links=%d: bad mlu %v", link, out.MLU)
	}
	return nil
}

// checkServed asserts that the plans r3d published for the first fresh
// matrices are byte-identical to local builds of the same inputs.
func (r *rig) checkServed(n int) {
	for i := 0; i < n && i < len(r.bodies); i++ {
		m, err := traffic.ParseMatrix(bytes.NewReader(r.bodies[i]), r.in.g.NumNodes(), r.in.g.NodeByName)
		r.b.op(err)
		if err != nil {
			continue
		}
		local := r.in
		local.d = m
		_, raw, err := local.build(local.cfg)
		r.b.op(err)
		r.b.check(err != nil || digest(raw) == r.digests[i], "served plan for fresh matrix %d differs from a local build", i)
	}
}

// runRollout is rollout-abilene.
func runRollout(b *bench) {
	in := abileneInputs(b)
	var rigs []*rig
	r := setup(b, func(int) *rig {
		r, err := newRig(b, in, nil)
		b.op(err)
		if r != nil {
			rigs = append(rigs, r)
		}
		return r
	})
	for _, old := range rigs {
		if old != r {
			old.close()
		}
	}
	if r == nil {
		return
	}
	defer r.close()
	b.notes["plan_digest"] = r.firstDigest
	if b.trace {
		traceRollout(b, in)
		return
	}
	w := r.measure(b.seconds)
	b.attempted += w.attempts
	b.failed += w.failures
	r.checkServed(2)

	// Publish latency is reported, not bounded: its run-to-run spread is
	// too wide to bound (README.md, "Reported but not bounded").
	pub := w.allPublishes()
	reads := append(append([]float64(nil), w.planMS...), w.whatIfMS...)
	b.setE2E("task_s", "s", median(w.whatIfMS)/1e3)
	b.setE2E("op_p50_ms", "ms", median(w.planMS))
	b.setE2E("mlu", "ratio", r.firstMLU)
	b.named("publish_p50_s", "s", median(pub), len(pub))
	for class, v := range w.publish {
		b.named("publish_"+class+"_p50_s", "s", median(v), len(v))
	}
	b.named("read_p50_ms", "ms", median(reads), len(reads))
	b.named("read_p95_ms", "ms", quantile(reads, 0.95), len(reads))
	b.named("read_p99_ms", "ms", quantile(reads, 0.99), len(reads))
	b.named("read_plan_p50_ms", "ms", median(w.planMS), len(w.planMS))
	b.named("read_scenario_p50_ms", "ms", median(w.whatIfMS), len(w.whatIfMS))
	b.notes["generator"] = map[string]any{
		"loop":            "open",
		"read_rate_per_s": float64(r.in.g.NumNodes()) / pollInterval.Seconds(),
		"late_p99_ms":     quantile(w.lateMS, 0.99),
		"late_max_ms":     maxOf(w.lateMS),
		"publishes_s":     w.publish,
		"writes":          len(r.revs) - 1,
	}
}

// traceRollout is rollout-abilene's traced run: a traced r3d measured
// with the consistency gate of its publishes, the handlers called without
// the HTTP stack, the plan-to-plan swaps of the update sequence cold and
// warm, the certify LP alone, and the tracing overhead of a precompute.
func traceRollout(b *bench, in planInputs) {
	traced, err := newRig(b, in, b.reg)
	b.op(err)
	if err != nil {
		return
	}
	defer traced.close()
	fw0, swaps0 := len(b.reg.Trace("fw").Snapshot()), len(b.reg.Trace("transition").Snapshot())
	wt := traced.measure(b.seconds)
	// The spans the server itself recorded during the traced window: one
	// fw.run per precompute, one plan_swap per swap (rollbacks included).
	precomputeSpans := spanSeconds(b.reg.Trace("fw").Snapshot()[fw0:], "fw.run")
	swapSpans := spanSeconds(b.reg.Trace("transition").Snapshot()[swaps0:], "plan_swap")
	b.attempted += wt.attempts
	b.failed += wt.failures

	h := traced.srv.Handler()
	call := func(target string) float64 {
		var us []float64
		for i := 0; i < 300; i++ {
			req := httptest.NewRequest(http.MethodGet, target, nil)
			rec := httptest.NewRecorder()
			us = append(us, 1e6*timed(func() { h.ServeHTTP(rec, req) }))
			b.op(statusErr(target, rec.Code))
		}
		return median(us)
	}
	b.setLayer("cp.handler_plan_us", "us", call("/v1/plan"))
	b.setLayer("cp.handler_scenario_us", "us", call("/v1/scenario?links=3"))

	// The update sequence's first fresh plans, built locally.
	var plans []*core.Plan
	var raws [][]byte
	var precomputeS, encodeS []float64
	for i := 0; i < 3; i++ {
		var p *core.Plan
		var raw []byte
		sp := b.span("core.Precompute(fresh matrix)")
		precomputeS = append(precomputeS, timed(func() { p, err = core.Precompute(in.g, traced.freshMatrix(i), in.cfg) }))
		sp.End()
		b.op(err)
		if err != nil {
			return
		}
		sp = b.span("core.Plan.EncodeBytes")
		encodeS = append(encodeS, timed(func() { raw, err = p.EncodeBytes() }))
		sp.End()
		b.op(err)
		plans, raws = append(plans, p), append(raws, raw)
	}
	b.setLayer("obs.overhead_frac", "ratio", precomputeOverhead(b, in, traced, raws))
	var cold, warm *transition.Sequence
	sp := b.span("transition.SchedulePlanSwap(cold)")
	coldS := timed(func() { cold, err = transition.SchedulePlanSwap(plans[0], plans[1], transition.Options{Obs: b.reg}) })
	sp.End()
	b.op(err)
	if err != nil {
		return
	}
	sp = b.span("transition.SchedulePlanSwap(warm)")
	warmS := timed(func() {
		warm, err = transition.SchedulePlanSwap(plans[1], plans[2], transition.Options{Warm: cold.Basis, Obs: b.reg})
	})
	sp.End()
	b.op(err)
	if err != nil {
		return
	}
	b.checkSwap(plans[0], plans[1], cold)
	b.checkSwap(plans[1], plans[2], warm)
	b.setLayer("transition.planswap_cold_ms", "ms", coldS*1e3)
	b.setLayer("transition.planswap_warm_ms", "ms", warmS*1e3)

	comms := routing.ODCommodities(in.g.NumNodes(), traced.freshMatrix(1).At)
	var exact *mcf.Result
	sp = b.span("mcf.MinMLUExact")
	exactS := timed(func() { exact, err = mcf.MinMLUExact(in.g, comms, mcf.Options{Obs: b.reg}) })
	sp.End()
	b.op(err)
	if err == nil {
		approx := mcf.MinMLU(in.g, comms, mcf.Options{Iterations: baseIterations})
		b.check(exact.MLU <= approx.MLU*(1+1e-9), "exact min MLU %v above the FW approximation %v", exact.MLU, approx.MLU)
		b.setLayer("mcf.exact_ms", "ms", exactS*1e3)
	}

	// Gate: the traced window's writes are its precomputes, swaps and
	// encodings (one per precompute), as the server's spans timed them.
	nPre := len(precomputeSpans)
	b.check(nPre == len(wt.publish["miss"]), "%d precompute spans for %d cache-miss writes", nPre, len(wt.publish["miss"]))
	b.gate("rollout-abilene", sum(precomputeSpans)+sum(swapSpans)+float64(nPre)*median(encodeS), wt.writeS)
	b.named("publish_miss_p50_s", "s", median(wt.publish["miss"]), len(wt.publish["miss"]))

	first := in
	first.d = traced.freshMatrix(0)
	b.probePlanLayers(first, plans[0], raws[0], in.g.NumLinks(), 4)
}

// overheadPairs is how many untraced/traced precompute pairs the
// rollout's tracing overhead is the median ratio of.
const overheadPairs = 6

// precomputeOverhead returns the tracing overhead of r3d's write path:
// the median over overheadPairs of a traced core.Precompute of a fresh
// matrix ÷ the same precompute untraced, − 1. A precompute is the part of
// a publish that records spans; the whole publish is dominated by a
// certify LP whose time differs from swap to swap. Traced plans must
// encode to the untraced bytes in raws.
func precomputeOverhead(b *bench, in planInputs, r *rig, raws [][]byte) float64 {
	var ratios []float64
	for i := 0; i < overheadPairs; i++ {
		k := i % len(raws)
		m := r.freshMatrix(k)
		cfg := in.cfg
		cfg.Obs = b.reg
		var p *core.Plan
		var err error
		runtime.GC()
		plainS := timed(func() { _, err = core.Precompute(in.g, m, in.cfg) })
		b.op(err)
		runtime.GC()
		tracedS := timed(func() { p, err = core.Precompute(in.g, m, cfg) })
		b.op(err)
		if err != nil {
			continue
		}
		raw, err := p.EncodeBytes()
		b.op(err)
		b.check(err != nil || bytes.Equal(raw, raws[k]), "tracing changed the plan of fresh matrix %d", k)
		ratios = append(ratios, tracedS/plainS)
	}
	return median(ratios) - 1
}

// spanSeconds returns the durations of the named root spans.
func spanSeconds(spans []obs.SpanSnapshot, name string) []float64 {
	var out []float64
	for _, sp := range spans {
		if sp.Name == name {
			out = append(out, float64(sp.DurNS)/1e9)
		}
	}
	return out
}

// checkSwap asserts a plan swap's rounds, replayed onto the old plan's
// tables, land on the new plan's tables.
func (b *bench) checkSwap(old, next *core.Plan, seq *transition.Sequence) {
	n := mplsff.Build(old)
	for _, r := range seq.Rounds {
		n.ApplyRound(r.Seq, r.Delta)
	}
	b.check(n.Fingerprint() == mplsff.Build(next).Fingerprint(), "plan swap rounds do not reproduce the new plan's tables")
}

func statusErr(target string, code int) error {
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d", target, code)
	}
	return nil
}
