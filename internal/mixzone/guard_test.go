package mixzone_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"histanon/internal/check"
	"histanon/internal/geo"
	"histanon/internal/mixzone"
	"histanon/internal/phl"
	"histanon/internal/stindex"
)

type findFunc func(stindex.Index, phl.Storer, phl.UserID, geo.Point, int64, int, mixzone.Divergence, geo.STMetric) ([]phl.UserID, bool)

// guardWorld is one seeded check workload loaded into a PHL store and the
// brute-force index, plus the query schedule the guard is examined on.
// The brute-force index returns equidistant users in a fixed order, so
// two runs of the same search agree exactly.
type guardWorld struct {
	store   *phl.Store
	idx     stindex.Index
	metric  geo.STMetric
	queries []guardQuery
}

type guardQuery struct {
	issuer phl.UserID
	p      geo.Point
	t      int64
	k      int
	d      mixzone.Divergence
}

func (q guardQuery) String() string {
	return fmt.Sprintf("issuer=%v p=%v t=%d k=%d horizon=%d minAngle=%g", q.issuer, q.p, q.t, q.k, q.d.Horizon, q.d.MinAngle)
}

// newGuardWorld replays the seed's check workload, then appends
// out-of-order samples (so the newest sample is not the last recorded)
// and a user moving into the latest time (a tie at the watermark). The
// query times sit below, inside the horizon below, at, and above the
// latest sample, and on sample times shared by several users.
func newGuardWorld(seed int64) *guardWorld {
	w := check.NewWorkload(check.WorkloadConfig{Seed: seed, Users: 20, Samples: 240})
	g := &guardWorld{store: phl.NewStore(), idx: stindex.NewBrute(), metric: w.Metric}
	record := func(u phl.UserID, p geo.STPoint) {
		g.store.Record(u, p)
		g.idx.Insert(u, p)
	}
	for _, in := range w.Inserts {
		record(in.User, in.Point)
	}
	rng := rand.New(rand.NewSource(seed))
	users := w.Cfg.Users
	latest, _ := g.store.Latest()
	for i := 0; i < 6; i++ {
		in := w.Inserts[rng.Intn(len(w.Inserts))]
		record(phl.UserID(rng.Intn(users)), geo.STPoint{P: in.Point.P, T: in.Point.T / 2})
	}
	// One user moves from latest-1 to latest: just before the watermark a
	// heading exists, so a guard that fires one second early is caught.
	last, mover := w.Inserts[len(w.Inserts)-1].Point, phl.UserID(rng.Intn(users))
	record(mover, geo.STPoint{P: geo.Point{X: last.P.X - 60, Y: last.P.Y + 80}, T: latest - 1})
	record(mover, geo.STPoint{P: geo.Point{X: last.P.X + 40, Y: last.P.Y - 30}, T: latest})

	times := []int64{
		latest, latest + 1, latest + 1 + rng.Int63n(900),
		latest - 1, latest - 1 - rng.Int63n(250), latest - 300 - rng.Int63n(600),
		w.Inserts[rng.Intn(len(w.Inserts))].Point.T, // a sample time, often shared
		rng.Int63n(latest + 1),
	}
	horizons := []int64{0, -300, 300, 1200}
	angles := []float64{0, 0.3, math.Pi / 8, math.Pi / 2}
	for _, t := range times {
		for _, k := range []int{0, 1, 4} {
			for _, h := range horizons {
				for _, a := range angles {
					p := w.Inserts[rng.Intn(len(w.Inserts))].Point.P
					if rng.Intn(3) == 0 {
						p = geo.Point{X: p.X + rng.NormFloat64()*200, Y: p.Y + rng.NormFloat64()*200}
					}
					g.queries = append(g.queries, guardQuery{
						issuer: phl.UserID(rng.Intn(users)),
						p:      p,
						t:      t,
						k:      k,
						d:      mixzone.Divergence{Horizon: h, MinAngle: a},
					})
				}
			}
		}
	}
	return g
}

// disagreements counts the queries on which f answers differently from
// the unguarded reference search.
func (g *guardWorld) disagreements(f findFunc) (n int, first string) {
	for _, q := range g.queries {
		gu, gok := f(g.idx, g.store, q.issuer, q.p, q.t, q.k, q.d, g.metric)
		ru, rok := mixzone.ReferenceFindDiverging(g.idx, g.store, q.issuer, q.p, q.t, q.k, q.d, g.metric)
		if gok != rok || !slices.Equal(gu, ru) {
			if n == 0 {
				first = fmt.Sprintf("%v: got %v/%v, reference %v/%v", q, gu, gok, ru, rok)
			}
			n++
		}
	}
	return n, first
}

// TestFindDivergingGuardExact holds the guarded search to the unguarded
// reference on every query of 40 seeded workloads. It also checks that
// the comparison is not vacuous: the guard must fire on some queries and
// the reference must succeed on others.
func TestFindDivergingGuardExact(t *testing.T) {
	fired, succeeded := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		g := newGuardWorld(seed)
		if n, first := g.disagreements(mixzone.FindDiverging); n != 0 {
			t.Fatalf("seed %d: %d of %d queries disagree with the reference; first: %s", seed, n, len(g.queries), first)
		}
		latest, _ := g.store.Latest()
		for _, q := range g.queries {
			if q.k > 0 && latest <= q.t {
				fired++
			}
			if _, ok := mixzone.ReferenceFindDiverging(g.idx, g.store, q.issuer, q.p, q.t, q.k, q.d, g.metric); ok && q.k > 0 {
				succeeded++
			}
		}
	}
	if fired == 0 || succeeded == 0 {
		t.Fatalf("vacuous comparison: guard fired on %d queries, reference succeeded on %d", fired, succeeded)
	}
	t.Logf("guard fired on %d queries; reference found k diverging users on %d", fired, succeeded)

	empty := phl.NewStore()
	grid := stindex.NewGrid(250, 900)
	for _, k := range []int{0, 1, 4} {
		gu, gok := mixzone.FindDiverging(grid, empty, 0, geo.Point{}, 0, k, mixzone.Divergence{}, geo.STMetric{})
		ru, rok := mixzone.ReferenceFindDiverging(grid, empty, 0, geo.Point{}, 0, k, mixzone.Divergence{}, geo.STMetric{})
		if gok != rok || !slices.Equal(gu, ru) {
			t.Fatalf("empty store, k=%d: got %v/%v, reference %v/%v", k, gu, gok, ru, rok)
		}
	}
}

// TestFindDivergingGuardFalsifiable runs the same comparison on a wrong
// guard (skip while no sample lies at or after t + Horizon). At least
// one seed must expose it, or the exactness test proves nothing.
func TestFindDivergingGuardFalsifiable(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		if n, first := newGuardWorld(seed).disagreements(mixzone.MisguardedFindDiverging); n > 0 {
			t.Logf("seed %d exposes the wrong guard on %d queries; first: %s", seed, n, first)
			return
		}
	}
	t.Fatal("no seed told the wrong guard from the unguarded search")
}
