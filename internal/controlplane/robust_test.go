package controlplane

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
)

// TestRebuildPanicRecovered: a panic inside a background rebuild is
// recovered into a failed build — a circuit-breaker failure, counted in
// cp.rebuild_panics and cp.rebuild_errors — and the daemon keeps serving
// the previous revision. A later traffic update then publishes normally.
func TestRebuildPanicRecovered(t *testing.T) {
	s, ts, reg := newTestServer(t, testFWConfig(), nil)
	g := testGraph()
	d := testMatrix(g, 150, 1)

	// The hook is written before the wake-channel send of the update
	// below, so the worker's read is race-free; the flag heals it later.
	var panicking atomic.Bool
	panicking.Store(true)
	s.testBuildErr = func() error {
		if panicking.Load() {
			panic("injected solver panic")
		}
		return nil
	}

	cur := perturb(t, d, 1)
	if code, resp := post(t, ts.URL+"/v1/traffic", matrixText(t, g, cur)); code != http.StatusAccepted {
		t.Fatalf("update = %d: %s", code, resp)
	}
	waitIdle(t, s)
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"cp.rebuild_panics":   1,
		"cp.rebuild_errors":   1,
		"cp.breaker.failures": 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	if id := s.Active().ID; id != 1 {
		t.Fatalf("panicked build published revision %d", id)
	}
	if code, _, _ := get(t, ts.URL+"/v1/plan"); code != http.StatusOK {
		t.Fatalf("GET /v1/plan after a rebuild panic = %d", code)
	}

	panicking.Store(false)
	cur = perturb(t, cur, 2)
	if code, resp := post(t, ts.URL+"/v1/traffic", matrixText(t, g, cur)); code != http.StatusAccepted {
		t.Fatalf("update after recovery = %d: %s", code, resp)
	}
	rev := waitRevision(t, s, 2)
	if want := directBytes(t, g, cur, testFWConfig()); !bytes.Equal(rev.Bytes, want) {
		t.Fatal("revision published after a recovered panic differs from a direct precompute")
	}
}

// TestNonFiniteMLUNeverPublishes: a topology whose capacities drive the
// plan's MLU to +Inf fails the build at the admission gate — before the
// plan is encoded or cached — through the ordinary error path, and the
// active revision stays the last finite one.
func TestNonFiniteMLUNeverPublishes(t *testing.T) {
	s, ts, reg := newTestServer(t, testFWConfig(), nil)
	// The test ring with its a–b duplex link shrunk to a subnormal
	// capacity: any load on it overflows the utilization to +Inf.
	text := strings.Replace(topologyText(t, testGraph()), "link a b 100 ", "link a b 1e-310 ", 1)
	if !strings.Contains(text, "1e-310") {
		t.Fatalf("topology text has no a–b link to shrink:\n%s", text)
	}
	g, err := topo.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	// No update is pending, so the worker is idle and a direct build
	// cannot interleave with it.
	if err := s.build(g, testMatrix(testGraph(), 150, 1)); err == nil || !strings.Contains(err.Error(), "not finite") {
		t.Fatalf("build of a +Inf-MLU plan = %v, want the admission gate's error", err)
	}
	if s.cache.Len() != 1 {
		t.Fatalf("cache holds %d plans, want only the boot plan", s.cache.Len())
	}
	if code, resp := post(t, ts.URL+"/v1/topology", []byte(text)); code != http.StatusAccepted {
		t.Fatalf("topology update = %d: %s", code, resp)
	}
	waitIdle(t, s)
	if id := s.Active().ID; id != 1 {
		t.Fatalf("a non-finite-MLU plan published as revision %d", id)
	}
	if n := reg.Snapshot().Counters["cp.rebuild_errors"]; n != 1 {
		t.Fatalf("cp.rebuild_errors = %d, want 1", n)
	}
	if n := reg.Snapshot().Counters["cp.rebuild_panics"]; n != 0 {
		t.Fatalf("cp.rebuild_panics = %d, want 0", n)
	}
}

func topologyText(t *testing.T, g *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := topo.Format(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// repeatReader yields line over and over until n bytes have been read.
type repeatReader struct {
	line []byte
	off  int
	n    int64
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.n {
		p = p[:r.n]
	}
	k := 0
	for k < len(p) {
		c := copy(p[k:], r.line[r.off:])
		k += c
		r.off = (r.off + c) % len(r.line)
	}
	r.n -= int64(k)
	return k, nil
}

// TestOversizedBodyRejected: every POST endpoint caps its body at
// maxBodyBytes and answers 413 past it, without accepting an update. The
// streamed bodies (no Content-Length) are well-formed comment lines, so
// only the read cap can reject them; a declared Content-Length past the
// cap is rejected before any read.
func TestOversizedBodyRejected(t *testing.T) {
	s, _, _ := newTestServer(t, testFWConfig(), nil)
	comment := []byte("# " + strings.Repeat("x", 1021) + "\n")
	for _, c := range []struct {
		name, path string
		declared   bool
	}{
		{"traffic-streamed", "/v1/traffic", false},
		{"topology-streamed", "/v1/topology", false},
		{"traffic-declared", "/v1/traffic", true},
		{"topology-declared", "/v1/topology", true},
		{"rollback-declared", "/v1/rollback", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			body := &repeatReader{line: comment, n: maxBodyBytes + 1}
			req := httptest.NewRequest(http.MethodPost, c.path, body)
			req.ContentLength = -1
			if c.declared {
				req.ContentLength = maxBodyBytes + 1
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("POST %s with a %d-byte body = %d: %s", c.path, maxBodyBytes+1, rec.Code, rec.Body)
			}
			if want := fmt.Sprintf("exceeds %d bytes", maxBodyBytes); !strings.Contains(rec.Body.String(), want) {
				t.Fatalf("413 body %q does not name the cap", rec.Body)
			}
			s.mu.Lock()
			gen := s.gen
			s.mu.Unlock()
			if gen != 0 {
				t.Fatalf("oversized body bumped the generation to %d", gen)
			}
			if id := s.Active().ID; id != 1 {
				t.Fatalf("oversized body changed the active revision to %d", id)
			}
		})
	}
}
