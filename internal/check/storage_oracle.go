package check

import (
	"fmt"
	"math/rand"
	"sort"

	"histanon/internal/anon"
	"histanon/internal/generalize"
	"histanon/internal/geo"
	"histanon/internal/phl"
	"histanon/internal/stindex"
	"histanon/internal/storage"
)

// StorageOracle drives one seeded workload through two PHL views that
// Algorithm 1 must not be able to tell apart: an all-hot in-memory
// store paired with a grid index, and a durable TieredStore over a
// crash-simulating MemFS with demotion tuned so most of the history
// lives in cold on-disk runs. Midway through ingestion the tiered
// store is closed and recovered from its snapshot chain and WAL tail,
// so every oracle run also certifies that recovery is observationally
// lossless. Check then cross-examines the two views: per-user
// histories, box and KNN queries, LT-consistency, HistoricalLevel and
// whole Algorithm 1 generalizations must agree byte for byte.
type StorageOracle struct {
	Cfg PopulationConfig
	// Hot is the baseline view: phl.Store plus stindex grid.
	Hot *Population
	// Tiered is the view under test; Store and Index are both the
	// TieredStore (the ts.Server wiring when Config.Index is nil).
	Tiered *Population
	// FS is the simulated disk under the tiered store.
	FS *storage.MemFS

	// latestChecks counts the Latest comparisons made per stage
	// ("demotion", "compaction", "reopen" during ingestion; "ingested"
	// and "close+reopen" in Check), so tests can require every stage to
	// have been reached.
	latestChecks map[string]int

	store *storage.TieredStore
	rng   *rand.Rand
	divs  []Divergence
	// ingestDivs are divergences found while ingesting; every Check
	// reports them again.
	ingestDivs []Divergence
}

// storageOracleOptions returns the aggressive demotion configuration:
// frequent snapshots, a hot window far shorter than the workload's
// time span, a short compaction chain and a cold cache small enough to
// miss. The grid parameters match the ts.Server defaults so decision
// legs compare like with like.
func storageOracleOptions(fsys storage.FS, span int64) storage.Options {
	return storage.Options{
		Dir:              "oracle",
		FS:               fsys,
		SnapshotEvery:    24,
		HotWindow:        span / 16,
		MaxDeltas:        3,
		ColdCacheEntries: 4,
		GridCell:         500,
		GridBucket:       900,
	}
}

// NewStorageOracle builds both views from cfg's seed and ingests the
// same interleaved workload into each, restarting the tiered store
// from disk halfway through. Trajectories are the same random walks
// NewPopulation uses, but records are replayed in global time order so
// the demotion watermark sweeps past every user's early samples.
func NewStorageOracle(cfg PopulationConfig) (*StorageOracle, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	recs := oracleRecords(cfg, rng)

	metric := geo.STMetric{TimeScale: cfg.TimeScale}
	o := &StorageOracle{
		Cfg: cfg,
		Hot: &Population{
			Cfg:    cfg,
			Store:  phl.NewStore(),
			Index:  stindex.NewGrid(500, 900),
			Metric: metric,
			Rng:    rng,
		},
		FS:           storage.NewMemFS(),
		latestChecks: make(map[string]int),
		rng:          rng,
	}
	opts := storageOracleOptions(o.FS, cfg.TimeSpan)
	st, _, err := storage.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("open tiered store: %w", err)
	}
	o.store = st
	o.Tiered = &Population{Cfg: cfg, Store: st, Index: st, Metric: metric, Rng: rng}

	var demotions, fulls int64
	for i, r := range recs {
		o.Hot.Record(r.u, r.p)
		o.Tiered.Record(r.u, r.p)
		// Maintenance ran inside this Record when a counter moved: the
		// watermark must survive demotion and compaction (which writes
		// a full snapshot) unchanged.
		stats := o.store.Stats()
		if stats.Demotions != demotions {
			o.checkLatest("demotion")
		}
		if stats.SnapshotsFull != fulls {
			o.checkLatest("compaction")
		}
		demotions, fulls = stats.Demotions, stats.SnapshotsFull
		if i == len(recs)/2 {
			// Clean restart mid-workload: recovery must hand back the
			// exact same observable PHL before ingestion continues.
			if err := o.reopen(opts); err != nil {
				return nil, err
			}
			o.checkLatest("reopen")
			demotions, fulls = 0, 0
		}
	}
	o.ingestDivs, o.divs = o.divs, nil
	return o, nil
}

// oracleRec is one location update of an oracle workload.
type oracleRec struct {
	u phl.UserID
	p geo.STPoint
}

// oracleRecords draws cfg's random walks from rng and returns their
// samples in global time order.
func oracleRecords(cfg PopulationConfig, rng *rand.Rand) []oracleRec {
	var recs []oracleRec
	half := cfg.Extent / 2
	step := cfg.Extent / 20
	for u := 0; u < cfg.Users; u++ {
		pos := geo.Point{X: rng.Float64()*cfg.Extent - half, Y: rng.Float64()*cfg.Extent - half}
		for i := 0; i < cfg.SamplesPerUser; i++ {
			pos.X = clamp(pos.X+rng.NormFloat64()*step, -half, half)
			pos.Y = clamp(pos.Y+rng.NormFloat64()*step, -half, half)
			t := int64(float64(cfg.TimeSpan) * (float64(i) + rng.Float64()) / float64(cfg.SamplesPerUser))
			recs = append(recs, oracleRec{u: phl.UserID(u), p: geo.STPoint{P: pos, T: t}})
		}
	}
	// Stable by time: per-user order (already time-sorted) survives,
	// the global stream becomes time-monotone.
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].p.T < recs[j].p.T })
	return recs
}

// reopen closes the tiered store and recovers it from its directory,
// as a restarted server would.
func (o *StorageOracle) reopen(opts storage.Options) error {
	if err := o.store.Close(); err != nil {
		return fmt.Errorf("close tiered store: %w", err)
	}
	st, _, err := storage.Open(opts)
	if err != nil {
		return fmt.Errorf("recover tiered store: %w", err)
	}
	o.store = st
	o.Tiered.Store, o.Tiered.Index = st, st
	return nil
}

// Store returns the live TieredStore under test (it changes identity
// across the mid-workload restart).
func (o *StorageOracle) Store() *storage.TieredStore { return o.store }

// Close releases the tiered store's file handles.
func (o *StorageOracle) Close() error { return o.store.Close() }

func (o *StorageOracle) fail(kind string, q int, format string, args ...any) {
	o.divs = append(o.divs, Divergence{Index: "tiered", Kind: kind, Query: q,
		Detail: fmt.Sprintf(format, args...)})
}

// randomBox derives a random spatio-temporal box over the populated
// region; roughly half the boxes are narrow enough to be selective.
func (o *StorageOracle) randomBox() geo.STBox {
	half := o.Cfg.Extent / 2
	w := o.Cfg.Extent * (0.05 + 0.45*o.rng.Float64())
	h := o.Cfg.Extent * (0.05 + 0.45*o.rng.Float64())
	cx := o.rng.Float64()*o.Cfg.Extent - half
	cy := o.rng.Float64()*o.Cfg.Extent - half
	t0 := int64(o.rng.Float64() * float64(o.Cfg.TimeSpan))
	dt := 1 + int64(o.rng.Float64()*float64(o.Cfg.TimeSpan)/4)
	return geo.STBox{
		Area: geo.Rect{MinX: cx - w/2, MinY: cy - h/2, MaxX: cx + w/2, MaxY: cy + h/2},
		Time: geo.Interval{Start: t0, End: t0 + dt},
	}
}

func sortedUsers(ids []phl.UserID) []phl.UserID {
	out := append([]phl.UserID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalUsers(a, b []phl.UserID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalPoints(a, b []geo.STPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Check runs every cross-examination and returns the divergences; an
// empty slice means the tiered store is observationally identical to
// the all-hot baseline. queries sizes the randomized probe mix.
func (o *StorageOracle) Check(queries int) []Divergence {
	o.divs = append([]Divergence(nil), o.ingestDivs...)
	faults0 := o.store.StorageFaults()
	o.checkVacuity()
	o.checkLatest("ingested")
	o.checkHistories()
	for qi := 0; qi < queries; qi++ {
		o.checkBoxQuery(qi)
		o.checkKNNQuery(qi)
		o.checkHistoricalLevel(qi)
	}
	o.checkGeneralizations(queries)
	// The probes above all ran against a healthy disk: any fault
	// counted during them is a cold-path defect, not an injection.
	if moved := o.store.StorageFaults() - faults0; moved != 0 {
		o.fail("faults", -1, "healthy probes counted %d storage faults", moved)
	}
	if err := o.reopen(storageOracleOptions(o.FS, o.Cfg.TimeSpan)); err != nil {
		o.fail("reopen", -1, "%v", err)
	} else {
		o.checkLatest("close+reopen")
	}
	return o.divs
}

// checkLatest compares the newest-sample watermark, which gates the
// on-demand mix-zone search (mixzone.FindDiverging): a tiered store
// reporting it too low would skip searches the in-memory store runs.
func (o *StorageOracle) checkLatest(stage string) {
	o.latestChecks[stage]++
	ht, hok := o.Hot.Store.Latest()
	tt, tok := o.Tiered.Store.Latest()
	if ht != tt || hok != tok {
		o.fail("latest", -1, "Latest after %s: hot %d (ok=%v), tiered %d (ok=%v)", stage, ht, hok, tt, tok)
	}
}

// checkVacuity guards the oracle itself: if demotion never happened
// the run compared an all-hot store against an all-hot store and
// proved nothing.
func (o *StorageOracle) checkVacuity() {
	st := o.store.Stats()
	if st.DemotedSamples == 0 || st.ColdSamples == 0 {
		o.fail("vacuous", -1,
			"no samples demoted (demoted=%d cold=%d): the oracle run exercises no cold path",
			st.DemotedSamples, st.ColdSamples)
	}
}

// checkHistories compares the full PHL: user enumeration order and
// every sample of every per-user history, byte for byte.
func (o *StorageOracle) checkHistories() {
	hu, tu := o.Hot.Store.Users(), o.Tiered.Store.Users()
	if !equalUsers(hu, tu) {
		o.fail("users", -1, "user enumeration differs: hot %v, tiered %v", hu, tu)
		return
	}
	if h, t := o.Hot.Store.NumSamples(), o.Tiered.Store.NumSamples(); h != t {
		o.fail("samples", -1, "NumSamples: hot %d, tiered %d", h, t)
	}
	for _, u := range hu {
		hp := o.Hot.Store.History(u).Points()
		tp := o.Tiered.Store.History(u).Points()
		if !equalPoints(hp, tp) {
			o.fail("history", -1, "history of %v differs: hot %d pts %v, tiered %d pts %v",
				u, len(hp), hp, len(tp), tp)
		}
	}
}

// checkBoxQuery compares the store-level and index-level box queries
// plus LT-consistency over a random box chain.
func (o *StorageOracle) checkBoxQuery(qi int) {
	b := o.randomBox()
	if h, t := sortedUsers(o.Hot.Store.UsersIn(b)), sortedUsers(o.Tiered.Store.UsersIn(b)); !equalUsers(h, t) {
		o.fail("box-users", qi, "UsersIn(%v): hot %v, tiered %v", b, h, t)
	}
	if h, t := o.Hot.Store.CountUsersIn(b), o.Tiered.Store.CountUsersIn(b); h != t {
		o.fail("box-count", qi, "CountUsersIn(%v): hot %d, tiered %d", b, h, t)
	}
	if h, t := sortedUsers(o.Hot.Index.UsersInBox(b)), sortedUsers(o.Tiered.Index.UsersInBox(b)); !equalUsers(h, t) {
		o.fail("index-box-users", qi, "UsersInBox(%v): hot %v, tiered %v", b, h, t)
	}
	if h, t := o.Hot.Index.CountUsersInBox(b), o.Tiered.Index.CountUsersInBox(b); h != t {
		o.fail("index-box-count", qi, "CountUsersInBox(%v): hot %d, tiered %d", b, h, t)
	}
	chain := []geo.STBox{b}
	for o.rng.Intn(2) == 0 && len(chain) < 4 {
		chain = append(chain, o.randomBox())
	}
	h := sortedUsers(o.Hot.Store.LTConsistentUsers(chain))
	t := sortedUsers(o.Tiered.Store.LTConsistentUsers(chain))
	if !equalUsers(h, t) {
		o.fail("lt-consistent", qi, "LTConsistentUsers(%d boxes): hot %v, tiered %v", len(chain), h, t)
	}
}

// checkKNNQuery compares KNearestUsers answers — user identity, the
// witness sample and its distance. Coordinates are continuous, so
// exact distance ties (the one case the tiered KNN may legitimately
// reorder) have probability zero.
func (o *StorageOracle) checkKNNQuery(qi int) {
	q := o.Hot.RandomQuery()
	k := 1 + o.rng.Intn(o.Cfg.Users+1)
	var exclude map[phl.UserID]bool
	if o.rng.Intn(2) == 0 {
		exclude = map[phl.UserID]bool{phl.UserID(o.rng.Intn(o.Cfg.Users)): true}
	}
	h := o.Hot.Index.KNearestUsers(q, k, o.Hot.Metric, exclude)
	t := o.Tiered.Index.KNearestUsers(q, k, o.Tiered.Metric, exclude)
	if len(h) != len(t) {
		o.fail("knn-len", qi, "KNearestUsers(%v, k=%d): hot %d results, tiered %d", q, k, len(h), len(t))
		return
	}
	for i := range h {
		if h[i].User != t[i].User || h[i].Point != t[i].Point {
			o.fail("knn", qi, "KNearestUsers(%v, k=%d)[%d]: hot %v@%v, tiered %v@%v",
				q, k, i, h[i].User, h[i].Point, t[i].User, t[i].Point)
		}
	}
}

// checkHistoricalLevel compares Def. 8's level for a random issuer
// over a random request-context chain — the quantity the tiered
// store's cold tier must never inflate or deflate.
func (o *StorageOracle) checkHistoricalLevel(qi int) {
	issuer := phl.UserID(o.rng.Intn(o.Cfg.Users))
	boxes := []geo.STBox{o.randomBox()}
	for o.rng.Intn(2) == 0 && len(boxes) < 4 {
		boxes = append(boxes, o.randomBox())
	}
	h := anon.HistoricalLevel(o.Hot.Store, issuer, boxes)
	t := anon.HistoricalLevel(o.Tiered.Store, issuer, boxes)
	if h != t {
		o.fail("historical-level", qi,
			"HistoricalLevel(%v, %d boxes): hot %d, tiered %d", issuer, len(boxes), h, t)
	}
}

// checkGeneralizations runs whole Algorithm 1 invocations against both
// views — same query, issuer, k, tolerance and randomizer stream — and
// demands identical Results: box, witnesses, witness samples and the
// HK-anonymity verdict.
func (o *StorageOracle) checkGeneralizations(n int) {
	// Identical non-zero seeds: both randomizers advance in lockstep.
	rseed := o.Cfg.Seed*2 + 1
	gh := o.Hot.Generalizer(rseed)
	gt := o.Tiered.Generalizer(rseed)
	for qi := 0; qi < n; qi++ {
		q := o.Hot.RandomQuery()
		issuer := phl.UserID(o.rng.Intn(o.Cfg.Users))
		k := 1 + o.rng.Intn(o.Cfg.Users+1)
		tol := generalize.Unlimited
		if o.rng.Intn(3) == 0 {
			tol = generalize.Tolerance{
				MaxWidth:    o.Cfg.Extent / 4,
				MaxHeight:   o.Cfg.Extent / 4,
				MaxDuration: o.Cfg.TimeSpan / 4,
			}
		}
		rh, okh := gh.FirstElement(q, issuer, k, tol)
		rt, okt := gt.FirstElement(q, issuer, k, tol)
		if okh != okt {
			o.fail("gen-ok", qi, "FirstElement(%v, k=%d) ok: hot %v, tiered %v", q, k, okh, okt)
			continue
		}
		if !okh {
			continue
		}
		if rh.Box != rt.Box {
			o.fail("gen-box", qi, "FirstElement(%v, k=%d) box: hot %v, tiered %v", q, k, rh.Box, rt.Box)
		}
		if rh.HKAnonymity != rt.HKAnonymity {
			o.fail("gen-hk", qi, "FirstElement(%v, k=%d) HKAnonymity: hot %v, tiered %v",
				q, k, rh.HKAnonymity, rt.HKAnonymity)
		}
		if !equalUsers(rh.Users, rt.Users) {
			o.fail("gen-witnesses", qi, "FirstElement(%v, k=%d) witnesses: hot %v, tiered %v",
				q, k, rh.Users, rt.Users)
		}
		if !equalPoints(rh.Points, rt.Points) {
			o.fail("gen-points", qi, "FirstElement(%v, k=%d) witness samples: hot %v, tiered %v",
				q, k, rh.Points, rt.Points)
		}
	}
}

// RunStorageDifferential is the one-call form: build the twin views
// for cfg, cross-examine them with the given number of randomized
// probes, and return all divergences. An empty slice means the tiered
// store — including its mid-workload crash recovery — answered every
// probe exactly like the all-hot baseline.
func RunStorageDifferential(cfg PopulationConfig, queries int) ([]Divergence, error) {
	o, err := NewStorageOracle(cfg)
	if err != nil {
		return nil, err
	}
	defer o.Close()
	return o.Check(queries), nil
}

// crashLatest is the torn-tail leg of the Latest comparison. It ingests
// cfg's workload into a TieredStore with fsync off (the storage oracle's
// demotion settings otherwise), kills the simulated disk after a seeded
// number of records, and keeps a seeded prefix of every file's unsynced
// tail, with its last byte corrupted when corruptTip is set. Recovery
// truncates the torn WAL records, which are the newest samples, so the
// watermark may have to come down. The recovered store's Latest is
// compared with a phl.Store rebuilt from its own histories, once after
// recovery and once after a further Close and reopen. dropped reports
// whether the crash lowered the watermark, so callers can require that
// some seeds exercise that case.
func crashLatest(cfg PopulationConfig, corruptTip bool) (divs []Divergence, dropped bool, err error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	recs := oracleRecords(cfg, rng)
	fsys := storage.NewMemFS()
	opts := storageOracleOptions(fsys, cfg.TimeSpan)
	opts.Sync = storage.SyncNone
	st, _, err := storage.Open(opts)
	if err != nil {
		return nil, false, fmt.Errorf("open tiered store: %w", err)
	}
	killAt := len(recs)/2 + rng.Intn(len(recs)-len(recs)/2)
	for _, r := range recs[:killAt+1] {
		st.Record(r.u, r.p)
	}
	ingested, _ := st.Latest()
	fsys.TornWriter = func(path string, unsynced int) (int, bool) {
		return rng.Intn(unsynced + 1), corruptTip
	}
	// The crashed instance is abandoned unclosed, as after a power
	// failure; recovery opens what survived on the simulated disk.
	fsys.Crash()
	fsys.TornWriter = nil

	for _, stage := range []string{"crash recovery", "close+reopen"} {
		if st, _, err = storage.Open(opts); err != nil {
			return divs, dropped, fmt.Errorf("%s: %w", stage, err)
		}
		rebuilt := phl.NewStore()
		for _, u := range st.Users() {
			for _, p := range st.History(u).Points() {
				rebuilt.Record(u, p)
			}
		}
		wt, wok := rebuilt.Latest()
		tt, tok := st.Latest()
		if wt != tt || wok != tok {
			divs = append(divs, Divergence{Index: "tiered", Kind: "latest", Query: -1,
				Detail: fmt.Sprintf("Latest after %s: recovered PHL %d (ok=%v), store %d (ok=%v)", stage, wt, wok, tt, tok)})
		}
		dropped = dropped || !tok || tt < ingested
		if err := st.Close(); err != nil {
			return divs, dropped, fmt.Errorf("close after %s: %w", stage, err)
		}
	}
	return divs, dropped, nil
}
