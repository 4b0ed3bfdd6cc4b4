// Package par is the repo's single concurrency substrate: a bounded
// worker pool running index-addressed parallel loops whose results are
// bit-identical to a serial execution, regardless of worker count or
// goroutine scheduling.
//
// Determinism contract. Every loop body writes results only into
// caller-owned slots addressed by its own index (ForEach, ForEachScratch,
// ForEachCtx), so scheduling cannot reorder anything observable. Callers
// keep the contract by never accumulating across indices inside a
// parallel body: any fold over the slots runs afterwards, serially, in
// index order. Shard-structured callers split work with ShardRanges,
// whose grid is a pure function of the problem size and shard count,
// never of the worker count. The Frank–Wolfe solver in internal/core
// leans on this to make Workers=1 and Workers=8 produce byte-identical
// plans.
//
// Panics inside a body are captured and re-raised on the caller's
// goroutine (the panic from the lowest-indexed failing item wins, again
// for determinism). Context cancellation is cooperative: ForEachCtx stops
// handing out new items once the context is done.
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded degree of parallelism. The zero value and nil both
// behave as a serial pool; New(n) bounds concurrent body executions to n.
// A Pool holds no goroutines between calls — workers are spawned per loop
// and joined before the loop returns, so a Pool is freely shareable and
// safe for concurrent use.
type Pool struct {
	workers int

	// Always-on stats: a few atomic adds per loop/item, negligible next
	// to the callers' bodies. Observability layers (internal/obs) sample
	// them through Stats and Pending rather than the pool importing any
	// metrics package.
	loops   atomic.Int64
	items   atomic.Int64
	pending atomic.Int64
	spawned atomic.Int64
}

// Stats reports how many parallel loops the pool has run and how many
// loop items it has executed. Nil pools report zeros.
func (p *Pool) Stats() (loops, items int64) {
	if p == nil {
		return 0, 0
	}
	return p.loops.Load(), p.items.Load()
}

// Pending reports the number of items of in-flight loops not yet
// completed — the pool's instantaneous queue depth. Nil pools report 0.
func (p *Pool) Pending() int64 {
	if p == nil {
		return 0
	}
	return p.pending.Load()
}

func (p *Pool) noteLoop(n int) {
	if p == nil {
		return
	}
	p.loops.Add(1)
	p.pending.Add(int64(n))
}

func (p *Pool) noteItemDone() {
	if p == nil {
		return
	}
	p.items.Add(1)
	p.pending.Add(-1)
}

// New returns a pool bounded to workers concurrent body executions.
// workers <= 0 selects GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Serial is a 1-worker pool: every construct degenerates to a plain loop.
var Serial = New(1)

// Workers reports the pool's bound. A nil or zero pool reports 1.
func (p *Pool) Workers() int {
	if p == nil || p.workers <= 0 {
		return 1
	}
	return p.workers
}

// SpawnedWorkers reports the total number of worker goroutines the pool
// has launched across all loops. Serial executions (one worker, or a
// single-slot runtime) spawn none. Nil pools
// report 0.
func (p *Pool) SpawnedWorkers() int64 {
	if p == nil {
		return 0
	}
	return p.spawned.Load()
}

func (p *Pool) noteSpawn() {
	if p == nil {
		return
	}
	p.spawned.Add(1)
}

// panicked carries a captured worker panic to the calling goroutine.
type panicked struct {
	index int
	value any
}

func (p panicked) String() string {
	return fmt.Sprintf("par: panic at index %d: %v", p.index, p.value)
}

// firstPanic tracks the lowest-index panic across workers.
type firstPanic struct {
	mu  sync.Mutex
	set bool
	p   panicked
}

func (f *firstPanic) record(index int, value any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.set || index < f.p.index {
		f.set = true
		f.p = panicked{index: index, value: value}
	}
}

// rethrow re-raises the recorded panic value on the caller's goroutine.
func (f *firstPanic) rethrow() {
	if f.set {
		panic(f.p.value)
	}
}

// ForEach runs fn(i) for every i in [0, n), using up to Workers()
// concurrent executions. fn must only write state owned by index i.
func (p *Pool) ForEach(n int, fn func(i int)) {
	ForEachScratch(p, n, func() struct{} { return struct{}{} }, func(i int, _ struct{}) { fn(i) })
}

// ForEachScratch is ForEach with a per-worker scratch value: newScratch
// runs once per worker goroutine (once total in serial execution), and fn
// may mutate the scratch freely — it is never shared between concurrent
// executions. Scratch state must not leak information between items in a
// way that affects results (buffers, not accumulators).
func ForEachScratch[S any](p *Pool, n int, newScratch func() S, fn func(i int, s S)) {
	ForEachScratchFree(p, n, newScratch, fn, nil)
}

// ForEachScratchFree is ForEachScratch with a release hook: free (when
// non-nil) runs once for every scratch value created, after its worker has
// finished all items — one call total in serial execution. It lets callers
// recycle scratch buffers through a pool instead of allocating per loop.
func ForEachScratchFree[S any](p *Pool, n int, newScratch func() S, fn func(i int, s S), free func(S)) {
	if n <= 0 {
		return
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	// On a single-slot runtime, goroutine handoff buys no parallelism and
	// costs scheduling overhead; degrade to the serial loop on the calling
	// goroutine, which writes the same index-owned slots.
	if w > 1 && runtime.GOMAXPROCS(0) == 1 {
		w = 1
	}
	p.noteLoop(n)
	var done atomic.Int64
	// Reconcile the pending gauge for items never executed (an early exit
	// via panic); on a normal completion this adjusts by zero.
	defer func() {
		if p != nil {
			p.pending.Add(done.Load() - int64(n))
		}
	}()
	if w == 1 {
		s := newScratch()
		for i := 0; i < n; i++ {
			fn(i, s)
			done.Add(1)
			p.noteItemDone()
		}
		if free != nil {
			free(s)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var fp firstPanic
	var wg sync.WaitGroup
	body := func(i int, s S) {
		defer func() {
			if r := recover(); r != nil {
				fp.record(i, r)
			}
		}()
		fn(i, s)
	}
	for g := 0; g < w; g++ {
		wg.Add(1)
		p.noteSpawn()
		go func() {
			defer wg.Done()
			s := newScratch()
			if free != nil {
				defer free(s)
			}
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				body(i, s)
				done.Add(1)
				p.noteItemDone()
			}
		}()
	}
	wg.Wait()
	fp.rethrow()
}

// ShardRanges splits [0, n) into at most shards contiguous half-open
// ranges [lo, hi), balanced to within one item. The grid is a pure
// function of (n, shards) — never of the worker count — and ranges are
// returned in ascending index order, so shard-structured loops that
// process each range serially and write index-owned slots inherit the
// package determinism contract. shards < 1 is treated as 1; shards > n
// is clamped to n (every returned range is non-empty). n <= 0 returns nil.
func ShardRanges(n, shards int) [][2]int {
	if n <= 0 {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	out := make([][2]int, shards)
	for s := 0; s < shards; s++ {
		out[s] = [2]int{s * n / shards, (s + 1) * n / shards}
	}
	return out
}

// ForEachCtx is ForEach with cooperative cancellation: once ctx is done,
// no new items are started and the context error is returned. fn errors
// abort the loop the same way; among concurrent failures the error of the
// lowest-indexed item wins. Items already running when the first error or
// cancellation lands still complete.
func (p *Pool) ForEachCtx(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if w > 1 && runtime.GOMAXPROCS(0) == 1 {
		w = 1
	}
	p.noteLoop(n)
	var done atomic.Int64
	defer func() {
		if p != nil {
			p.pending.Add(done.Load() - int64(n))
		}
	}()
	var next atomic.Int64
	next.Store(-1)
	var (
		errMu    sync.Mutex
		errIdx   = n
		firstErr error
	)
	record := func(i int, err error) {
		errMu.Lock()
		if i < errIdx {
			errIdx, firstErr = i, err
		}
		errMu.Unlock()
	}
	stopped := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr != nil
	}
	var fp firstPanic
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		p.noteSpawn()
		go func() {
			defer wg.Done()
			for {
				if err := ctx.Err(); err != nil {
					record(int(next.Load())+1, err)
					return
				}
				if stopped() {
					return
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							fp.record(i, r)
						}
					}()
					if err := fn(i); err != nil {
						record(i, err)
					}
				}()
				done.Add(1)
				p.noteItemDone()
			}
		}()
	}
	wg.Wait()
	fp.rethrow()
	return firstErr
}
