package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"histanon/internal/geo"
	"histanon/internal/phl"
	"histanon/internal/stindex"
)

// aggressive demotes nearly everything at every opportunity: tiny hot
// window, maintenance every 32 records, compaction after 3 deltas.
func aggressive(fsys FS) Options {
	return Options{
		Dir:              "store",
		FS:               fsys,
		SnapshotEvery:    32,
		HotWindow:        60,
		MaxDeltas:        3,
		ColdCacheEntries: 8,
	}
}

func mustOpen(t *testing.T, opts Options) *TieredStore {
	t.Helper()
	ts, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// randWorkload drives identical samples into both stores: continuous
// coordinates (ties have probability zero), drifting time.
func randWorkload(rng *rand.Rand, n, users int, apply ...func(phl.UserID, geo.STPoint)) {
	t := int64(0)
	for i := 0; i < n; i++ {
		t += int64(rng.Intn(10))
		u := phl.UserID(rng.Intn(users))
		p := geo.STPoint{
			P: geo.Point{X: rng.Float64() * 5e3, Y: rng.Float64() * 5e3},
			T: t,
		}
		for _, f := range apply {
			f(u, p)
		}
	}
}

func sameHistories(t *testing.T, ref *phl.Store, ts *TieredStore) {
	t.Helper()
	if ts.NumUsers() != ref.NumUsers() || ts.NumSamples() != ref.NumSamples() {
		t.Fatalf("size mismatch: %d/%d users, %d/%d samples",
			ts.NumUsers(), ref.NumUsers(), ts.NumSamples(), ref.NumSamples())
	}
	refUsers := ref.Users()
	gotUsers := ts.Users()
	for i := range refUsers {
		if gotUsers[i] != refUsers[i] {
			t.Fatalf("user order diverges at %d: %d vs %d", i, gotUsers[i], refUsers[i])
		}
	}
	for _, u := range refUsers {
		want := ref.History(u).Points()
		got := ts.History(u).Points()
		if len(got) != len(want) {
			t.Fatalf("user %d: %d samples, want %d", u, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("user %d sample %d: %+v, want %+v", u, i, got[i], want[i])
			}
		}
	}
}

func sameQueries(t *testing.T, rng *rand.Rand, ref *phl.Store, ts *TieredStore, queries int) {
	t.Helper()
	maxT := int64(0)
	for _, u := range ref.Users() {
		h := ref.History(u)
		if h.Len() > 0 && h.At(h.Len()-1).T > maxT {
			maxT = h.At(h.Len() - 1).T
		}
	}
	for q := 0; q < queries; q++ {
		x, y := rng.Float64()*5e3, rng.Float64()*5e3
		t0 := int64(rng.Float64() * float64(maxT))
		box := geo.STBox{
			Area: geo.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*2e3, MaxY: y + rng.Float64()*2e3},
			Time: geo.Interval{Start: t0, End: t0 + int64(rng.Intn(200))},
		}
		want := ref.UsersIn(box)
		got := ts.UsersIn(box)
		if len(want) != len(got) {
			t.Fatalf("query %d: UsersIn %d vs %d users (box %+v)", q, len(got), len(want), box)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d: UsersIn[%d] = %d, want %d", q, i, got[i], want[i])
			}
		}
		if ts.CountUsersIn(box) != len(want) {
			t.Fatalf("query %d: CountUsersIn mismatch", q)
		}
	}
}

func TestTieredMatchesAllHotStore(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	fsys := NewMemFS()
	ts := mustOpen(t, aggressive(fsys))
	defer ts.Close()
	ref := phl.NewStore()
	randWorkload(rng, 3000, 40, ref.Record, ts.Record)

	if ts.Stats().DemotedSamples == 0 {
		t.Fatal("workload demoted nothing; test exercises only the hot path")
	}
	sameHistories(t, ref, ts)
	sameQueries(t, rng, ref, ts, 200)
}

func TestTieredLTConsistentMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	fsys := NewMemFS()
	ts := mustOpen(t, aggressive(fsys))
	defer ts.Close()
	ref := phl.NewStore()
	randWorkload(rng, 2000, 30, ref.Record, ts.Record)

	for q := 0; q < 50; q++ {
		var boxes []geo.STBox
		for b := 0; b < 1+rng.Intn(3); b++ {
			x, y := rng.Float64()*5e3, rng.Float64()*5e3
			t0 := int64(rng.Intn(2000))
			boxes = append(boxes, geo.STBox{
				Area: geo.Rect{MinX: x, MinY: y, MaxX: x + 2e3, MaxY: y + 2e3},
				Time: geo.Interval{Start: t0, End: t0 + 500},
			})
		}
		want := ref.LTConsistentUsers(boxes)
		got := ts.LTConsistentUsers(boxes)
		if len(want) != len(got) {
			t.Fatalf("LTConsistentUsers: %d vs %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("LTConsistentUsers[%d] = %d, want %d", i, got[i], want[i])
			}
		}
	}
}

func TestTieredKNNMatchesGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	fsys := NewMemFS()
	ts := mustOpen(t, aggressive(fsys))
	defer ts.Close()
	grid := stindex.NewGrid(500, 900)
	ref := phl.NewStore()
	randWorkload(rng, 2000, 30, ref.Record, ts.Record,
		func(u phl.UserID, p geo.STPoint) { grid.Insert(u, p); ts.Insert(u, p) })

	if ts.Stats().DemotedSamples == 0 {
		t.Fatal("nothing demoted")
	}
	m := geo.STMetric{TimeScale: 2}
	for q := 0; q < 100; q++ {
		qp := geo.STPoint{
			P: geo.Point{X: rng.Float64() * 5e3, Y: rng.Float64() * 5e3},
			T: int64(rng.Intn(2000)),
		}
		if err := sameKNN(grid, ts, qp, 1+rng.Intn(8), m, nil); err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
	}
}

// sameKNN compares one KNearestUsers answer of the tiered store with the
// all-hot grid's: the same user and the same distance at every rank.
func sameKNN(grid stindex.Index, ts *TieredStore, q geo.STPoint, k int, m geo.STMetric, exclude map[phl.UserID]bool) error {
	want := grid.KNearestUsers(q, k, m, exclude)
	got := ts.KNearestUsers(q, k, m, exclude)
	if len(want) != len(got) {
		return fmt.Errorf("KNN(%+v, k=%d) returned %d users, want %d", q, k, len(got), len(want))
	}
	for i := range want {
		wd := m.Dist(q, want[i].Point)
		gd := m.Dist(q, got[i].Point)
		if got[i].User != want[i].User || wd != gd {
			return fmt.Errorf("KNN(%+v, k=%d) rank %d: (%d, %g) vs (%d, %g)",
				q, k, i, got[i].User, gd, want[i].User, wd)
		}
	}
	return nil
}

func TestTieredRecoveryAfterClose(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	fsys := NewMemFS()
	ts := mustOpen(t, aggressive(fsys))
	ref := phl.NewStore()
	randWorkload(rng, 1500, 25, ref.Record, ts.Record)
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	ts2, info, err := Open(aggressive(fsys))
	if err != nil {
		t.Fatal(err)
	}
	defer ts2.Close()
	if info.TornTail {
		t.Fatal("clean shutdown reported torn tail")
	}
	sameHistories(t, ref, ts2)
	sameQueries(t, rng, ref, ts2, 100)
}

func TestTieredRecoveryAfterCrash(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		fsys := NewMemFS()
		ts := mustOpen(t, aggressive(fsys))
		ref := phl.NewStore() // acked samples only
		n := 200 + rng.Intn(1500)
		randWorkload(rng, n, 20, func(u phl.UserID, p geo.STPoint) {
			ts.Record(u, p)
			if !ts.StorageFailed() {
				ref.Record(u, p) // Record returned with a durable WAL: acked
			}
		})
		fsys.TornWriter = func(path string, unsynced int) (int, bool) {
			return rng.Intn(unsynced + 1), rng.Intn(2) == 0
		}
		fsys.Crash()
		fsys.TornWriter = nil

		ts2, _, err := Open(aggressive(fsys))
		if err != nil {
			t.Fatalf("seed %d: recovery refused: %v", seed, err)
		}
		sameHistories(t, ref, ts2)
		ts2.Close()
	}
}

// Recovery is idempotent: opening, closing and reopening without
// writes yields the same PHL every time.
func TestTieredRecoveryIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	fsys := NewMemFS()
	ts := mustOpen(t, aggressive(fsys))
	ref := phl.NewStore()
	randWorkload(rng, 1000, 20, ref.Record, ts.Record)
	ts.Close()
	for round := 0; round < 3; round++ {
		ts2 := mustOpen(t, aggressive(fsys))
		sameHistories(t, ref, ts2)
		if err := ts2.Close(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestTieredColdReadFaultDegrades(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	fsys := NewMemFS()
	ts := mustOpen(t, aggressive(fsys))
	defer ts.Close()
	randWorkload(rng, 2000, 10, ts.Record)
	if ts.Stats().DemotedSamples == 0 {
		t.Fatal("nothing demoted")
	}
	full := 0
	for _, u := range ts.Users() {
		full += ts.History(u).Len()
	}
	if full != ts.NumSamples() {
		t.Fatalf("healthy histories hold %d samples, store reports %d", full, ts.NumSamples())
	}

	fsys.FailReads = fmt.Errorf("injected IO error")
	ts.cache.drop() // force disk touches
	faults0 := ts.StorageFaults()
	broken := 0
	for _, u := range ts.Users() {
		broken += ts.History(u).Len()
	}
	if broken >= full {
		t.Fatal("cold reads failed but histories did not shrink")
	}
	if ts.StorageFaults() == faults0 {
		t.Fatal("cold read errors not counted as storage faults")
	}
	if ts.StorageFailed() {
		t.Fatal("cold read errors must degrade, not fail-stop")
	}
	fsys.FailReads = nil
	repaired := 0
	for _, u := range ts.Users() {
		repaired += ts.History(u).Len()
	}
	if repaired != full {
		t.Fatal("store did not recover once reads heal")
	}
}

func TestTieredWALFailureIsFailStop(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	fsys := NewMemFS()
	ts := mustOpen(t, aggressive(fsys))
	randWorkload(rng, 100, 5, ts.Record)
	if ts.StorageFailed() {
		t.Fatal("healthy store reports failed")
	}
	fsys.FailSyncs = fmt.Errorf("injected fsync error")
	u, p := testSample(0)
	ts.Record(u, p)
	if !ts.StorageFailed() {
		t.Fatal("fsync error did not latch fail-stop")
	}
	// The sample is still readable (memory stays coherent) but the
	// store stays failed even after the disk heals.
	fsys.FailSyncs = nil
	ts.Record(u, p)
	if !ts.StorageFailed() {
		t.Fatal("fail-stop did not stick")
	}
}

func TestTieredCorruptSnapshotRefusesBoot(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	fsys := NewMemFS()
	ts := mustOpen(t, aggressive(fsys))
	randWorkload(rng, 1000, 10, ts.Record)
	ts.Close()
	var snapPath string
	for _, p := range fsys.Files() {
		if _, _, ok := parseSnapshotName(p[len("store/"):]); ok {
			snapPath = p
		}
	}
	if snapPath == "" {
		t.Fatal("no snapshot written")
	}
	if err := fsys.Corrupt(snapPath, 40); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(aggressive(fsys)); err == nil {
		t.Fatal("boot accepted a corrupt snapshot")
	}
}

func TestTieredCompactionBoundsFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	fsys := NewMemFS()
	opts := aggressive(fsys)
	ts := mustOpen(t, opts)
	defer ts.Close()
	ref := phl.NewStore()
	randWorkload(rng, 5000, 20, ref.Record, ts.Record)
	st := ts.Stats()
	if st.SnapshotsFull == 0 {
		t.Fatal("no compaction happened")
	}
	if st.ChainFiles > opts.MaxDeltas+1 {
		t.Fatalf("chain has %d files, cap %d", st.ChainFiles, opts.MaxDeltas+1)
	}
	sameHistories(t, ref, ts)
}

// The WAL must not grow without bound while snapshots cover it.
func TestTieredWALPruned(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	fsys := NewMemFS()
	opts := aggressive(fsys)
	opts.SegmentBytes = 2048
	ts := mustOpen(t, opts)
	defer ts.Close()
	randWorkload(rng, 5000, 20, ts.Record)
	segs := 0
	for _, p := range fsys.Files() {
		if _, ok := parseWALSegmentName(p[len("store/"):]); ok {
			segs++
		}
	}
	if segs > 3 {
		t.Fatalf("%d live WAL segments after continuous pruning", segs)
	}
}

func TestTieredStatsAndRecoveryInfo(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	fsys := NewMemFS()
	ts := mustOpen(t, aggressive(fsys))
	randWorkload(rng, 2000, 20, ts.Record)
	st := ts.Stats()
	if st.WALAppends != 2000 || st.WALErrors != 0 || st.Failed {
		t.Fatalf("stats = %+v", st)
	}
	if st.WALFsyncs == 0 || st.WALBytes == 0 || st.SnapshotsDelta == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HotSamples+st.ColdSamples != 2000 {
		t.Fatalf("hot %d + cold %d != 2000", st.HotSamples, st.ColdSamples)
	}
	ts.Close()
	ts2, info, err := Open(aggressive(fsys))
	if err != nil {
		t.Fatal(err)
	}
	defer ts2.Close()
	if info.ColdSamples+info.WarmSamples+info.Replayed != 2000 {
		t.Fatalf("recovery accounts for %d samples, want 2000: %+v",
			info.ColdSamples+info.WarmSamples+info.Replayed, info)
	}
	if got := ts2.Recovery(); got != *info {
		t.Fatal("Recovery() differs from Open's info")
	}
}
