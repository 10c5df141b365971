package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"histanon/internal/geo"
	"histanon/internal/phl"
	"histanon/internal/stindex"
)

type sample struct {
	u phl.UserID
	p geo.STPoint
}

// homeWorkload returns samples of users who each stay within 150 m of
// their own home, with drifting time: every user's cold bound is a small
// box, so KNearestUsers prunes most users by it and a wrong bound or a
// wrong margin changes answers.
func homeWorkload(rng *rand.Rand, n, users int) []sample {
	homes := make([]geo.Point, users)
	for i := range homes {
		homes[i] = geo.Point{X: rng.Float64() * 5e3, Y: rng.Float64() * 5e3}
	}
	out := make([]sample, 0, n)
	t := int64(0)
	for i := 0; i < n; i++ {
		t += int64(rng.Intn(10))
		u := rng.Intn(users)
		out = append(out, sample{phl.UserID(u), geo.STPoint{
			P: geo.Point{X: homes[u].X + (rng.Float64()-0.5)*300, Y: homes[u].Y + (rng.Float64()-0.5)*300},
			T: t,
		}})
	}
	return out
}

// knnCase is one KNearestUsers query of the edge battery.
type knnCase struct {
	what    string
	q       geo.STPoint
	k       int
	exclude map[phl.UserID]bool
}

// edgeQueries builds queries where a prune by the per-user cold bound
// would go wrong first: the mix-zone over-fetch k = 4k+8 = 28, exclude
// sets, query times inside the cold span (no time term), queries exactly
// on a run's and on a user's bound edge, and queries at a user's latest
// cold sample (the one a bound built before the watermark moved misses).
func edgeQueries(rng *rand.Rand, ts *TieredStore) []knnCase {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	cut, maxT := ts.cut, ts.maxT
	users := len(ts.order)
	randK := func() int {
		if rng.Intn(4) == 0 {
			return 28
		}
		return 1 + rng.Intn(8)
	}
	randPoint := func() geo.Point {
		return geo.Point{X: rng.Float64()*5.4e3 - 200, Y: rng.Float64()*5.4e3 - 200}
	}
	randExclude := func() map[phl.UserID]bool {
		ex := map[phl.UserID]bool{}
		for i := 0; i < 1+rng.Intn(max(users/3, 1)); i++ {
			ex[ts.order[rng.Intn(users)]] = true
		}
		return ex
	}
	onEdge := func(r geo.Rect) geo.Point {
		x := r.MinX + rng.Float64()*(r.MaxX-r.MinX)
		y := r.MinY + rng.Float64()*(r.MaxY-r.MinY)
		switch rng.Intn(6) {
		case 0:
			x = r.MinX
		case 1:
			x = r.MaxX
		case 2:
			y = r.MinY
		case 3:
			y = r.MaxY
		case 4:
			x, y = r.MinX, r.MinY
		default:
			x, y = r.MaxX, r.MaxY
		}
		return geo.Point{X: x, Y: y}
	}
	var out []knnCase
	for i := 0; i < 40; i++ {
		out = append(out,
			knnCase{"anywhere", geo.STPoint{P: randPoint(), T: rng.Int63n(maxT + 200)}, randK(), nil},
			knnCase{"mix-zone fetch", geo.STPoint{P: randPoint(), T: rng.Int63n(maxT + 200)}, 28,
				map[phl.UserID]bool{ts.order[rng.Intn(users)]: true}},
			knnCase{"exclude set", geo.STPoint{P: randPoint(), T: rng.Int63n(maxT + 200)}, randK(), randExclude()},
		)
		if cut > 0 {
			out = append(out, knnCase{"inside cold span", geo.STPoint{P: randPoint(), T: rng.Int63n(cut)}, randK(), nil})
		}
	}
	for i := range ts.tiers {
		b := ts.bounds[i]
		if !b.ok {
			continue
		}
		tier := &ts.tiers[i]
		run := &tier.runs[rng.Intn(len(tier.runs))]
		if run.ref.minT < cut {
			end := min(run.ref.maxT, cut-1)
			out = append(out,
				knnCase{"run bbox edge", geo.STPoint{P: onEdge(run.ref.bbox), T: run.ref.minT + rng.Int63n(end-run.ref.minT+1)}, randK(), nil},
				knnCase{"run bbox edge, span end", geo.STPoint{P: onEdge(run.ref.bbox), T: end}, randK(), nil})
		}
		out = append(out,
			knnCase{"bound edge", geo.STPoint{P: onEdge(b.area), T: b.minT + rng.Int63n(b.maxT-b.minT+1)}, randK(), nil},
			knnCase{"bound edge, after span", geo.STPoint{P: onEdge(b.area), T: b.maxT + 1 + rng.Int63n(300)}, randK(), randExclude()})
		var last geo.STPoint
		for j := range tier.runs {
			pts, err := ts.readRunNoCache(&tier.runs[j])
			if err != nil {
				panic(err)
			}
			if pre := coldPrefix(pts, cut); len(pre) > 0 && pre[len(pre)-1].T >= last.T {
				last = pre[len(pre)-1]
			}
		}
		out = append(out, knnCase{"latest cold sample", last, 1 + rng.Intn(3), nil})
	}
	return out
}

// edgeBoxes returns box queries that touch each user's cold bound
// exactly: on its first or last cold second, or sharing only an edge.
func edgeBoxes(ts *TieredStore) []geo.STBox {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	var out []geo.STBox
	for _, b := range ts.bounds {
		if !b.ok {
			continue
		}
		a := b.area
		out = append(out,
			geo.STBox{Area: a, Time: geo.Interval{Start: b.maxT, End: b.maxT}},
			geo.STBox{Area: a, Time: geo.Interval{Start: b.minT - 50, End: b.minT}},
			geo.STBox{Area: geo.Rect{MinX: a.MinX - 100, MinY: a.MinY, MaxX: a.MinX, MaxY: a.MaxY}, Time: geo.Interval{Start: b.minT, End: b.maxT}},
			geo.STBox{Area: geo.Rect{MinX: a.MinX, MinY: a.MaxY, MaxX: a.MaxX, MaxY: a.MaxY + 100}, Time: geo.Interval{Start: b.minT, End: b.maxT}},
		)
	}
	return out
}

// TestTieredColdBoundEdges checks KNearestUsers against the all-hot grid
// on the edge battery, and the box scans against an all-hot store on
// boxes touching the cold bounds, after compactions, at the end of the
// workload and after a reopen.
func TestTieredColdBoundEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	fsys := NewMemFS()
	ts := mustOpen(t, aggressive(fsys))
	grid := stindex.NewGrid(500, 900)
	ref := phl.NewStore()
	m := geo.STMetric{TimeScale: 2}
	battery := func(stage string, ts *TieredStore) {
		t.Helper()
		for _, c := range edgeQueries(rng, ts) {
			if err := sameKNN(grid, ts, c.q, c.k, m, c.exclude); err != nil {
				t.Fatalf("%s, %s: %v", stage, c.what, err)
			}
		}
		boxes := edgeBoxes(ts)
		for i, b := range boxes {
			want, got := ref.UsersIn(b), ts.UsersIn(b)
			if fmt.Sprint(got) != fmt.Sprint(want) || ts.CountUsersIn(b) != len(want) {
				t.Fatalf("%s: UsersIn(%+v) = %v, want %v", stage, b, got, want)
			}
			pair := []geo.STBox{b, boxes[(i+1)%len(boxes)]}
			want, got = ref.LTConsistentUsers(pair), ts.LTConsistentUsers(pair)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: LTConsistentUsers(%+v) = %v, want %v", stage, pair, got, want)
			}
		}
	}
	compactions := int64(0)
	for _, s := range homeWorkload(rng, 3000, 30) {
		ts.Record(s.u, s.p)
		ts.Insert(s.u, s.p)
		grid.Insert(s.u, s.p)
		ref.Record(s.u, s.p)
		if n := ts.Stats().SnapshotsFull; n > compactions {
			compactions = n
			if n <= 3 || n%4 == 0 {
				battery(fmt.Sprintf("after compaction %d", n), ts)
			}
		}
	}
	if compactions < 3 || ts.Stats().DemotedSamples == 0 {
		t.Fatalf("workload ran %d compactions and demoted %d samples", compactions, ts.Stats().DemotedSamples)
	}
	battery("end of workload", ts)
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	ts2 := mustOpen(t, aggressive(fsys))
	defer ts2.Close()
	battery("after reopen", ts2)
}

// TestTieredKNNPruneMargin pins the prune's margin on a near tie. User 0
// sits 100+1e-8 m from the query, user 1 exactly 100 m, at its cold
// bound's edge, and user 0 is scanned first. A prune of user 1 against
// the k-th distance that is not conservative to a relative 1e-9 drops
// the true nearest user.
func TestTieredKNNPruneMargin(t *testing.T) {
	fsys := NewMemFS()
	ts := mustOpen(t, aggressive(fsys))
	defer ts.Close()
	grid := stindex.NewGrid(500, 900)
	rec := func(u phl.UserID, x, y float64, tm int64) {
		p := geo.STPoint{P: geo.Point{X: x, Y: y}, T: tm}
		ts.Record(u, p)
		ts.Insert(u, p)
		grid.Insert(u, p)
	}
	rec(0, 1100+1e-8, 1000, 100)
	rec(1, 900, 1000, 100)
	rec(1, 850, 1050, 101)
	// Later samples, far away in space and time, demote the two above.
	for i := int64(0); i < 200; i++ {
		rec(phl.UserID(2+i%5), 4000+float64(i), 4000, 1000+i*10)
	}
	if ts.Stats().DemotedSamples == 0 {
		t.Fatal("nothing demoted")
	}
	q := geo.STPoint{P: geo.Point{X: 1000, Y: 1000}, T: 100}
	m := geo.STMetric{}
	if err := sameKNN(grid, ts, q, 1, m, nil); err != nil {
		t.Fatal(err)
	}
	if got := ts.KNearestUsers(q, 1, m, nil); len(got) != 1 || got[0].User != 1 {
		t.Fatalf("nearest = %+v, want user 1", got)
	}
}

// TestTieredConcurrentKNNDuringMaintenance runs KNearestUsers, History
// and LTConsistentUsers readers while one writer records through many
// maintenance cycles and compactions, which rebuild the dense tier
// slice's runs and the cold bounds under the write lock. Run under
// -race; at the end every answer must equal the all-hot grid and store.
func TestTieredConcurrentKNNDuringMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	fsys := NewMemFS()
	ts := mustOpen(t, aggressive(fsys))
	defer ts.Close()
	ref := phl.NewStore()
	grid := stindex.NewGrid(500, 900)
	samples := homeWorkload(rng, 1200, 40)
	m := geo.STMetric{TimeScale: 2}
	maxT := samples[len(samples)-1].p.T

	stop := make(chan struct{})
	var wg, ready sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		ready.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			ready.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := geo.STPoint{P: geo.Point{X: rng.Float64() * 5e3, Y: rng.Float64() * 5e3}, T: rng.Int63n(maxT + 1)}
				k := 1 + rng.Intn(28)
				got := ts.KNearestUsers(q, k, m, nil)
				if len(got) > k {
					t.Errorf("KNN returned %d users for k=%d", len(got), k)
					return
				}
				seen := map[phl.UserID]bool{}
				for i, up := range got {
					if seen[up.User] || (i > 0 && m.Dist(q, up.Point) < m.Dist(q, got[i-1].Point)) {
						t.Errorf("KNN answer not distinct users by rising distance: %+v", got)
						return
					}
					seen[up.User] = true
				}
				ts.History(phl.UserID(rng.Intn(40)))
				x, y, t0 := rng.Float64()*5e3, rng.Float64()*5e3, rng.Int63n(maxT+1)
				ts.LTConsistentUsers([]geo.STBox{{
					Area: geo.Rect{MinX: x, MinY: y, MaxX: x + 1e3, MaxY: y + 1e3},
					Time: geo.Interval{Start: t0, End: t0 + 500},
				}})
			}
		}(rand.New(rand.NewSource(int64(70 + r))))
	}
	ready.Wait()
	for _, s := range samples {
		ts.Record(s.u, s.p)
		ts.Insert(s.u, s.p)
		ref.Record(s.u, s.p)
		grid.Insert(s.u, s.p)
	}
	close(stop)
	wg.Wait()

	if st := ts.Stats(); st.SnapshotsDelta < 10 || st.SnapshotsFull == 0 || st.DemotedSamples == 0 {
		t.Fatalf("writer ran too little maintenance: %+v", st)
	}
	sameHistories(t, ref, ts)
	for q := 0; q < 60; q++ {
		qp := geo.STPoint{P: geo.Point{X: rng.Float64() * 5e3, Y: rng.Float64() * 5e3}, T: rng.Int63n(maxT + 1)}
		if err := sameKNN(grid, ts, qp, 1+rng.Intn(28), m, nil); err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		x, y, t0 := rng.Float64()*5e3, rng.Float64()*5e3, rng.Int63n(maxT+1)
		boxes := []geo.STBox{{
			Area: geo.Rect{MinX: x, MinY: y, MaxX: x + 1e3, MaxY: y + 1e3},
			Time: geo.Interval{Start: t0, End: t0 + 500},
		}}
		want, got := ref.LTConsistentUsers(boxes), ts.LTConsistentUsers(boxes)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("query %d: LTConsistentUsers %v, want %v", q, got, want)
		}
	}
}
