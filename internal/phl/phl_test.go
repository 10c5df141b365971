package phl

import (
	"math/rand"
	"testing"

	"histanon/internal/geo"
)

func rect(a, b, c, d float64) geo.Rect {
	return geo.Rect{MinX: a, MinY: b, MaxX: c, MaxY: d}
}

func iv(a, b int64) geo.Interval { return geo.Interval{Start: a, End: b} }

func pt(x, y float64, t int64) geo.STPoint {
	return geo.STPoint{P: geo.Point{X: x, Y: y}, T: t}
}

func TestHistoryAppendKeepsOrder(t *testing.T) {
	var h History
	h.Append(pt(0, 0, 10))
	h.Append(pt(1, 1, 30))
	h.Append(pt(2, 2, 20)) // out of order
	h.Append(pt(3, 3, 5))  // out of order, front
	if h.Len() != 4 {
		t.Fatalf("Len=%d", h.Len())
	}
	want := []int64{5, 10, 20, 30}
	for i, w := range want {
		if got := h.At(i).T; got != w {
			t.Fatalf("At(%d).T=%d want %d", i, got, w)
		}
	}
}

func TestHistoryAppendOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h History
	for i := 0; i < 500; i++ {
		h.Append(pt(0, 0, int64(rng.Intn(1000))))
	}
	pts := h.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].T < pts[i-1].T {
			t.Fatalf("history out of order at %d: %d < %d", i, pts[i].T, pts[i-1].T)
		}
	}
}

func TestHistoryIn(t *testing.T) {
	var h History
	h.Append(pt(0, 0, 0))
	h.Append(pt(5, 5, 10))
	h.Append(pt(10, 10, 20))
	h.Append(pt(50, 50, 15)) // inside the time window but outside the area
	box := geo.STBox{Area: rect(0, 0, 20, 20), Time: iv(5, 20)}
	got := h.In(box)
	if len(got) != 2 {
		t.Fatalf("In returned %d points: %v", len(got), got)
	}
	if !h.AnyIn(box) {
		t.Fatal("AnyIn must be true")
	}
	empty := geo.STBox{Area: rect(0, 0, 1, 1), Time: iv(100, 200)}
	if h.AnyIn(empty) {
		t.Fatal("AnyIn must be false for an empty region")
	}
}

func TestHistoryClosest(t *testing.T) {
	var h History
	h.Append(pt(0, 0, 0))
	h.Append(pt(100, 0, 100))
	h.Append(pt(200, 0, 200))
	m := geo.STMetric{TimeScale: 1}
	best, d, ok := h.Closest(pt(95, 0, 95), m)
	if !ok || best.T != 100 {
		t.Fatalf("Closest=%v d=%g ok=%v", best, d, ok)
	}
	// A spatially distant but temporally near point must lose to a
	// temporally distant but spatially near one when scales say so.
	var h2 History
	h2.Append(pt(0, 0, 1000)) // far in time
	h2.Append(pt(5000, 0, 0)) // far in space
	best, _, _ = h2.Closest(pt(0, 0, 0), m)
	if best.T != 1000 {
		t.Fatalf("expected the 1000s-away point, got %v", best)
	}
}

func TestHistoryClosestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := geo.STMetric{TimeScale: 2.5}
	var h History
	for i := 0; i < 400; i++ {
		h.Append(pt(rng.Float64()*1000, rng.Float64()*1000, int64(rng.Intn(5000))))
	}
	for trial := 0; trial < 200; trial++ {
		q := pt(rng.Float64()*1000, rng.Float64()*1000, int64(rng.Intn(5000)))
		got, gd, ok := h.Closest(q, m)
		if !ok {
			t.Fatal("unexpected empty history")
		}
		bestD := -1.0
		for _, p := range h.Points() {
			if d := m.Dist(p, q); bestD < 0 || d < bestD {
				bestD = d
			}
		}
		if gd != bestD {
			t.Fatalf("Closest distance %g != brute force %g (point %v)", gd, bestD, got)
		}
	}
}

func TestHistoryClosestEmpty(t *testing.T) {
	var h History
	if _, _, ok := h.Closest(pt(0, 0, 0), geo.STMetric{}); ok {
		t.Fatal("empty history must report ok=false")
	}
}

func TestLTConsistent(t *testing.T) {
	var h History
	h.Append(pt(10, 10, 100))
	h.Append(pt(20, 20, 200))
	boxes := []geo.STBox{
		{Area: rect(0, 0, 15, 15), Time: iv(90, 110)},
		{Area: rect(15, 15, 25, 25), Time: iv(190, 210)},
	}
	if !h.LTConsistent(boxes) {
		t.Fatal("history must be LT-consistent")
	}
	boxes = append(boxes, geo.STBox{Area: rect(0, 0, 100, 100), Time: iv(300, 400)})
	if h.LTConsistent(boxes) {
		t.Fatal("missing the third box: must be inconsistent")
	}
	if !h.LTConsistent(nil) {
		t.Fatal("every history is consistent with no requests")
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	s.Record(1, pt(0, 0, 0))
	s.Record(2, pt(10, 10, 0))
	s.Record(1, pt(1, 1, 10))
	if s.NumUsers() != 2 || s.NumSamples() != 3 {
		t.Fatalf("NumUsers=%d NumSamples=%d", s.NumUsers(), s.NumSamples())
	}
	if got := s.Users(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Users=%v", got)
	}
	if h := s.History(1); h == nil || h.Len() != 2 {
		t.Fatal("History(1) wrong")
	}
	if s.History(99) != nil {
		t.Fatal("unknown user must have nil history")
	}
}

func TestStoreUsersIn(t *testing.T) {
	s := NewStore()
	s.Record(1, pt(0, 0, 0))
	s.Record(2, pt(100, 100, 0))
	s.Record(3, pt(5, 5, 50))
	box := geo.STBox{Area: rect(-10, -10, 10, 10), Time: iv(0, 100)}
	got := s.UsersIn(box)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("UsersIn=%v", got)
	}
	if s.CountUsersIn(box) != 2 {
		t.Fatalf("CountUsersIn=%d", s.CountUsersIn(box))
	}
}

func TestStoreLTConsistentUsers(t *testing.T) {
	s := NewStore()
	// Users 1 and 2 share a morning area; only 1 visits the office.
	s.Record(1, pt(0, 0, 100))
	s.Record(1, pt(500, 500, 200))
	s.Record(2, pt(2, 2, 105))
	s.Record(3, pt(900, 900, 100))
	morning := geo.STBox{Area: rect(-5, -5, 5, 5), Time: iv(90, 110)}
	office := geo.STBox{Area: rect(495, 495, 505, 505), Time: iv(190, 210)}

	got := s.LTConsistentUsers([]geo.STBox{morning})
	if len(got) != 2 {
		t.Fatalf("morning set=%v", got)
	}
	got = s.LTConsistentUsers([]geo.STBox{morning, office})
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("morning+office set=%v", got)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			s.Record(UserID(i%7), pt(float64(i), 0, int64(i)))
		}
		close(done)
	}()
	for i := 0; i < 1000; i++ {
		s.NumUsers()
		s.CountUsersIn(geo.STBox{Area: rect(0, 0, 10, 10), Time: iv(0, 10)})
	}
	<-done
	if s.NumSamples() != 1000 {
		t.Fatalf("NumSamples=%d", s.NumSamples())
	}
}

// TestStoreHistoryIsSnapshot pins the contract readers rely on when
// they use a History outside the store's lock: later records, in order
// or not, leave a returned History unchanged.
func TestStoreHistoryIsSnapshot(t *testing.T) {
	s := NewStore()
	for i := int64(0); i < 4; i++ {
		s.Record(1, pt(float64(i), 0, 10*i))
	}
	h := s.History(1)
	before := append([]geo.STPoint(nil), h.Points()...)
	s.Record(1, pt(9, 9, 100)) // in order
	s.Record(1, pt(8, 8, 5))   // out of order
	if h.Len() != len(before) {
		t.Fatalf("snapshot grew to %d samples", h.Len())
	}
	for i, p := range h.Points() {
		if p != before[i] {
			t.Fatalf("snapshot sample %d changed: %v -> %v", i, before[i], p)
		}
	}
	if got := s.History(1); got.Len() != 6 || got.At(1) != pt(8, 8, 5) {
		t.Fatalf("store history after records: %v", got.Points())
	}
}

// TestStoreHistoryConcurrentReaders reads histories outside the lock
// while records land, some out of order; run under -race.
func TestStoreHistoryConcurrentReaders(t *testing.T) {
	s := NewStore()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 20000; i++ {
			ts := int64(i)
			if i%50 == 0 {
				ts = int64(i / 2) // out of order
			}
			s.Record(UserID(i%3), pt(float64(i), 0, ts))
		}
		close(done)
	}()
	m := geo.STMetric{}
	for i := 0; i < 20000; i++ {
		if h := s.History(UserID(i % 3)); h != nil {
			h.Closest(pt(0, 0, int64(i)), m)
			h.In(geo.STBox{Area: rect(0, 0, 100, 100), Time: iv(0, 100)})
		}
	}
	<-done
	if s.NumSamples() != 20000 {
		t.Fatalf("NumSamples=%d", s.NumSamples())
	}
}

func TestUserIDString(t *testing.T) {
	if got := UserID(42).String(); got != "u42" {
		t.Fatalf("String=%q", got)
	}
}

func TestClosestNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := geo.STMetric{TimeScale: 1.7}
	var h History
	for i := 0; i < 300; i++ {
		h.Append(pt(rng.Float64()*1000, rng.Float64()*1000, int64(rng.Intn(4000))))
	}
	for trial := 0; trial < 100; trial++ {
		q := pt(rng.Float64()*1000, rng.Float64()*1000, int64(rng.Intn(4000)))
		n := 1 + rng.Intn(8)
		got := h.ClosestN(q, n, m)
		if len(got) != n {
			t.Fatalf("got %d want %d", len(got), n)
		}
		// Brute force distances.
		var dists []float64
		for _, p := range h.Points() {
			dists = append(dists, m.Dist(p, q))
		}
		sortFloats(dists)
		for i, p := range got {
			if d := m.Dist(p, q); d != dists[i] {
				t.Fatalf("rank %d: %g want %g", i, d, dists[i])
			}
			if i > 0 && m.Dist(got[i-1], q) > m.Dist(p, q) {
				t.Fatal("result not ordered")
			}
		}
	}
}

func TestClosestNEdgeCases(t *testing.T) {
	var h History
	if got := h.ClosestN(pt(0, 0, 0), 3, geo.STMetric{}); got != nil {
		t.Fatal("empty history must return nil")
	}
	h.Append(pt(1, 1, 1))
	if got := h.ClosestN(pt(0, 0, 0), 0, geo.STMetric{}); got != nil {
		t.Fatal("n=0 must return nil")
	}
	if got := h.ClosestN(pt(0, 0, 0), 5, geo.STMetric{}); len(got) != 1 {
		t.Fatalf("n beyond size: %d", len(got))
	}
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
