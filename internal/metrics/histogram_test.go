package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	// An observation exactly on a bound belongs to that bucket (v ≤ bound).
	for _, v := range []float64{0.5, 1} {
		h.Observe(v)
	}
	h.Observe(1.5) // ≤ 2
	h.Observe(2)   // ≤ 2
	h.Observe(5)   // ≤ 5
	h.Observe(5.1) // overflow
	got := h.BucketCounts()
	want := []int64{2, 2, 1, 1}
	if len(got) != len(want) {
		t.Fatalf("bucket count slice length = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("Count = %d, want 6", h.Count())
	}
	if sum := h.Sum(); sum != 0.5+1+1.5+2+5+5.1 {
		t.Fatalf("Sum = %g", sum)
	}
}

func TestHistogramNaNDropped(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(math.NaN())
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("NaN observation must be dropped: count=%d sum=%g", h.Count(), h.Sum())
	}
}

func TestNewHistogramCleansBounds(t *testing.T) {
	h := NewHistogram([]float64{5, 1, 5, math.Inf(1), 2})
	got := h.Bounds()
	want := []float64{1, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("Bounds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Bounds = %v, want %v", got, want)
		}
	}
	for _, bad := range [][]float64{nil, {math.Inf(1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHistogram(%v) must panic", bad)
				}
			}()
			NewHistogram(bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NaN bound must panic")
			}
		}()
		NewHistogram([]float64{math.NaN()})
	}()
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(1, 1, 4)
	for i, want := range []float64{1, 2, 3, 4} {
		if lin[i] != want {
			t.Fatalf("LinearBuckets = %v", lin)
		}
	}
	exp := ExponentialBuckets(1, 10, 3)
	for i, want := range []float64{1, 10, 100} {
		if exp[i] != want {
			t.Fatalf("ExponentialBuckets = %v", exp)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ExponentialBuckets(0,…) must panic")
			}
		}()
		ExponentialBuckets(0, 2, 3)
	}()
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram([]float64{1, 2})
	b := NewHistogram([]float64{1, 2})
	a.Observe(0.5)
	b.Observe(1.5)
	b.Observe(3)
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if a.Count() != 3 {
		t.Fatalf("merged Count = %d", a.Count())
	}
	if got := a.BucketCounts(); got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("merged buckets = %v", got)
	}
	if a.Sum() != 5 {
		t.Fatalf("merged Sum = %g", a.Sum())
	}
	// b is untouched.
	if b.Count() != 2 {
		t.Fatalf("source Count mutated: %d", b.Count())
	}

	if err := a.Merge(a); err == nil {
		t.Fatal("self-merge must error")
	}
	c := NewHistogram([]float64{1, 3})
	if err := a.Merge(c); err == nil {
		t.Fatal("bounds-mismatch merge must error")
	}
	d := NewHistogram([]float64{1})
	if err := a.Merge(d); err == nil {
		t.Fatal("bucket-count-mismatch merge must error")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile must be NaN")
	}
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%30) + 0.5) // uniform over (0, 30)
	}
	if got := h.Quantile(0.5); got < 10 || got > 20 {
		t.Fatalf("median = %g, want within (10, 20)", got)
	}
	h.Observe(1e9) // overflow resolves to the top finite bound
	if got := h.Quantile(1); got != 30 {
		t.Fatalf("p100 with overflow = %g, want 30", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(LinearBuckets(1, 1, 8))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(g))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := h.Sum(); got != 28000 { // 1000 * (0+1+…+7)
		t.Fatalf("Sum = %g", got)
	}
}

func TestCounterVec(t *testing.T) {
	v := NewCounterVec("event", "shard")
	v.Inc("fwd", "0")
	v.Inc("fwd", "0")
	v.Add(5, "drop", "1")
	if got := v.Get("fwd", "0"); got != 2 {
		t.Fatalf("Get = %d", got)
	}
	if got := v.Get("nope", "9"); got != 0 {
		t.Fatalf("missing series = %d", got)
	}
	snap := v.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot = %v", snap)
	}
	// Sorted by label values: drop < fwd.
	if snap[0].LabelValues[0] != "drop" || snap[0].Value != 5 {
		t.Fatalf("Snapshot[0] = %v", snap[0])
	}
	if snap[1].LabelValues[0] != "fwd" || snap[1].Value != 2 {
		t.Fatalf("Snapshot[1] = %v", snap[1])
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("wrong label arity must panic")
			}
		}()
		v.Inc("only-one")
	}()
}
