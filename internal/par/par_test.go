package par

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8, 64} {
		p := New(w)
		for _, n := range []int{0, 1, 2, 7, 100, 1000} {
			hits := make([]int32, n)
			p.ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", w, n, i, h)
				}
			}
		}
	}
}

func TestWorkersBound(t *testing.T) {
	if got := New(0).Workers(); got < 1 {
		t.Fatalf("New(0).Workers() = %d", got)
	}
	if got := New(5).Workers(); got != 5 {
		t.Fatalf("New(5).Workers() = %d", got)
	}
	var nilPool *Pool
	if got := nilPool.Workers(); got != 1 {
		t.Fatalf("nil pool Workers() = %d", got)
	}
	// A nil pool must still run loops, serially.
	sum := 0
	nilPool.ForEach(10, func(i int) { sum += i })
	if sum != 45 {
		t.Fatalf("nil pool ForEach sum = %d", sum)
	}
}

func TestConcurrencyIsBounded(t *testing.T) {
	p := New(3)
	var cur, peak int32
	p.ForEach(100, func(i int) {
		c := atomic.AddInt32(&cur, 1)
		for {
			old := atomic.LoadInt32(&peak)
			if c <= old || atomic.CompareAndSwapInt32(&peak, old, c) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		atomic.AddInt32(&cur, -1)
	})
	if peak > 3 {
		t.Fatalf("observed %d concurrent executions, bound 3", peak)
	}
}

func TestForEachScratchIsPerWorker(t *testing.T) {
	p := New(4)
	var created int32
	out := make([]int, 200)
	ForEachScratch(p, 200, func() *[]int {
		atomic.AddInt32(&created, 1)
		buf := make([]int, 1)
		return &buf
	}, func(i int, s *[]int) {
		(*s)[0] = i // scratch is exclusively ours for this item
		out[i] = (*s)[0] * 2
	})
	if created > 4 {
		t.Fatalf("scratch created %d times for 4 workers", created)
	}
	for i, v := range out {
		if v != 2*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestPanicPropagatesLowestIndex(t *testing.T) {
	p := New(8)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		if fmt.Sprint(r) != "boom 3" {
			t.Fatalf("expected lowest-index panic, got %v", r)
		}
	}()
	p.ForEach(100, func(i int) {
		if i == 3 || i == 60 {
			panic(fmt.Sprintf("boom %d", i))
		}
	})
}

func TestForEachCtxCancellation(t *testing.T) {
	p := New(4)
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	err := p.ForEachCtx(ctx, 10000, func(i int) error {
		if atomic.AddInt32(&ran, 1) == 8 {
			cancel()
		}
		time.Sleep(50 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if n := atomic.LoadInt32(&ran); n > 9000 {
		t.Fatalf("cancellation did not stop the loop: %d items ran", n)
	}
}

func TestForEachCtxFirstErrorWins(t *testing.T) {
	p := New(8)
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for trial := 0; trial < 10; trial++ {
		err := p.ForEachCtx(context.Background(), 200, func(i int) error {
			switch i {
			case 5:
				return errLow
			case 150:
				return errHigh
			}
			return nil
		})
		// 150 may never run once 5 fails; either way the reported error
		// must be the lowest-indexed one actually recorded.
		if err == nil {
			t.Fatal("expected an error")
		}
		if errors.Is(err, errHigh) {
			t.Fatalf("trial %d: high-index error beat low-index error", trial)
		}
	}
}

// TestShardRanges pins the shard partitioner: exact cover of [0, n) in
// ascending order, balance within one item, clamping, and independence
// from anything but (n, shards).
func TestShardRanges(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 8, 9, 100, 1000} {
		for _, shards := range []int{-1, 0, 1, 2, 3, 7, 32, 5000} {
			ranges := ShardRanges(n, shards)
			if n <= 0 {
				if ranges != nil {
					t.Fatalf("n=%d shards=%d: want nil, got %v", n, shards, ranges)
				}
				continue
			}
			want := shards
			if want < 1 {
				want = 1
			}
			if want > n {
				want = n
			}
			if len(ranges) != want {
				t.Fatalf("n=%d shards=%d: %d ranges, want %d", n, shards, len(ranges), want)
			}
			next, min, max := 0, n, 0
			for _, r := range ranges {
				if r[0] != next || r[1] <= r[0] {
					t.Fatalf("n=%d shards=%d: bad range %v after %d", n, shards, r, next)
				}
				w := r[1] - r[0]
				if w < min {
					min = w
				}
				if w > max {
					max = w
				}
				next = r[1]
			}
			if next != n {
				t.Fatalf("n=%d shards=%d: ranges end at %d", n, shards, next)
			}
			if max-min > 1 {
				t.Fatalf("n=%d shards=%d: unbalanced (min %d, max %d)", n, shards, min, max)
			}
		}
	}
}
