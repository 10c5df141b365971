package main

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"sort"
	"time"

	"histanon/internal/generalize"
	"histanon/internal/httpapi"
	"histanon/internal/mixzone"
	"histanon/internal/mobility"
	"histanon/internal/obs"
	"histanon/internal/phl"
	"histanon/internal/resilience"
	"histanon/internal/slo"
	"histanon/internal/stindex"
	"histanon/internal/storage"
	"histanon/internal/tgran"
	"histanon/internal/ts"
	"histanon/internal/wire"
)

// workload is one named traffic mix; doc.go says why each exists.
type workload struct {
	name     string
	scenario string
	agents   int
	tiered   bool
}

var workloads = []workload{
	{name: "rush-1c", scenario: "rush-hour", agents: 20000},
	{name: "rural-tiered", scenario: "rural", agents: 5000, tiered: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serviceTolerance is E-comp's service-quality bound (compTolerance in
// internal/sim), given to every scenario service.
var serviceTolerance = generalize.Tolerance{MaxWidth: 2000, MaxHeight: 2000, MaxDuration: 1800}

// traffic is a workload's materialized input: LBQIDs and, per day, the
// time-ordered events.
type traffic struct {
	seed     int64
	agents   int
	lbqids   []userSpec
	services []string
	days     [2][]mobility.Event
}

type userSpec struct {
	user phl.UserID
	spec string
}

// synthesize builds the workload's traffic for a seed.
func synthesize(w workload, seed int64) (*traffic, error) {
	sc, ok := mobility.ScenarioByName(w.scenario)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q", w.scenario)
	}
	cfg := sc.Config(w.agents, seed)
	cfg.Days = 2
	s := mobility.NewStream(cfg)
	tr := &traffic{seed: seed, agents: w.agents}
	all := make([]mobility.Event, 0, 48*w.agents)
	for id := 0; id < w.agents; id++ {
		a := s.AgentEvents(id, func(ev mobility.Event) { all = append(all, ev) })
		if a.Commuter {
			tr.lbqids = append(tr.lbqids, userSpec{a.User, commuteLBQID(s, a)})
		}
	}
	// A stable sort on time keeps generation order among equal times:
	// agent by agent, each agent's own events in order. That is (time,
	// user) order with every user's own order preserved.
	slices.SortStableFunc(all, func(a, b mobility.Event) int { return cmp.Compare(a.Point.T, b.Point.T) })
	day1 := sort.Search(len(all), func(i int) bool { return all[i].Point.T >= tgran.Day })
	tr.days = [2][]mobility.Event{all[:day1:day1], all[day1:]}
	seen := map[string]bool{}
	for _, ev := range all {
		if ev.Request && !seen[ev.Service] {
			seen[ev.Service] = true
			tr.services = append(tr.services, ev.Service)
		}
	}
	return tr, nil
}

// commuteLBQID is the Example-1 commute pattern over the agent's own
// home and office, with the element windows of World.CommuterLBQID and
// a recurrence over the two simulated days.
func commuteLBQID(s *mobility.Stream, a mobility.Agent) string {
	home := s.Homes()[a.Home].Area.Expand(60)
	office := s.Offices()[a.Office].Area.Expand(60)
	return fmt.Sprintf(`lbqid "commute-u%d" {
    element "Home"   area [%g,%g]x[%g,%g] time [06:30,09:00]
    element "Office" area [%g,%g]x[%g,%g] time [07:00,11:00]
    element "Office" area [%g,%g]x[%g,%g] time [15:30,19:00]
    element "Home"   area [%g,%g]x[%g,%g] time [16:00,21:00]
    recurrence 2.Days
}`,
		int64(a.User),
		home.MinX, home.MaxX, home.MinY, home.MaxY,
		office.MinX, office.MaxX, office.MinY, office.MaxY,
		office.MinX, office.MaxX, office.MinY, office.MaxY,
		home.MinX, home.MaxX, home.MinY, home.MaxY)
}

func (tr *traffic) dayCounts(d int) (events, calls int) {
	for _, ev := range tr.days[d] {
		if ev.Request {
			calls++
		}
	}
	return len(tr.days[d]), calls
}

// seams holds the traced run's timing wrappers; nil fields mean the seam
// is not wrapped (untraced runs, or a seam the configuration lacks).
type seams struct {
	phl     *seamOps
	stindex *seamOps
	storage *seamOps
	outbox  *timedOutbox
}

// stack is one assembled server: what cmd/lbserve builds with default
// flags, minus the listener.
type stack struct {
	srv     *ts.Server
	handler *httpapi.Handler
	outbox  *resilience.Outbox
	tiered  *storage.TieredStore
	seams   seams
}

// storeOptions is the rural-tiered store configuration: lbserve's
// -hot-window and -cold-cache-entries defaults with -wal-fsync none.
func storeOptions(dir string) storage.Options {
	return storage.Options{
		Dir:              dir,
		Sync:             storage.SyncNone,
		HotWindow:        int64(time.Hour.Seconds()),
		ColdCacheEntries: 1024,
	}
}

// buildStack assembles a server over tiered (nil: the in-memory PHL and
// grid) and registers the traffic's LBQIDs. traced installs the timing
// wrappers and head sampling at 100%.
func buildStack(tr *traffic, tiered *storage.TieredStore, traced bool) (*stack, error) {
	cfg := ts.Config{
		DefaultPolicy: ts.Policy{K: 5},
		OnDemand: mixzone.OnDemand{
			Quiet:          600,
			Divergence:     mixzone.Divergence{MinAngle: 0.3},
			FallbackRadius: 800,
		},
		Services: map[string]ts.ServiceSpec{},
	}
	for _, name := range tr.services {
		cfg.Services[name] = ts.ServiceSpec{Name: name, Tolerance: serviceTolerance}
	}
	objectives, err := slo.ParseObjectives("below_k<0.1%")
	if err != nil {
		return nil, err
	}
	windows, err := slo.ParseWindows("1m,10m,1h")
	if err != nil {
		return nil, err
	}
	cfg.SLO = slo.Options{Windows: windows, Objectives: objectives}

	// The lbserve audit sink is a nil *AuditLog unless -audit is set.
	var audit *obs.AuditLog
	outbox := resilience.NewOutbox(resilience.DeliveryFunc(func(*wire.Request) error { return nil }),
		resilience.Options{
			QueueSize:   1024,
			Workers:     4,
			Deadline:    5 * time.Second,
			MaxAttempts: 4,
			Breaker:     resilience.BreakerConfig{FailureThreshold: 5, OpenFor: 5 * time.Second},
			Audit:       func(e obs.Event) { audit.Log(e) },
		})
	st := &stack{outbox: outbox, tiered: tiered}
	var out ts.Outbox = outbox
	switch {
	case tiered != nil && traced:
		st.seams.storage = &seamOps{}
		cfg.Store = &timedTiered{TieredStore: tiered, ops: st.seams.storage}
	case tiered != nil:
		cfg.Store = tiered
	case traced:
		// The same store and grid ts.New would build by default.
		st.seams.phl, st.seams.stindex = &seamOps{}, &seamOps{}
		cfg.Store = &timedStore{Storer: phl.NewStore(), ops: st.seams.phl}
		cfg.Index = &timedIndex{Index: stindex.NewGrid(500, 900), ops: st.seams.stindex}
	}
	if traced {
		st.seams.outbox = &timedOutbox{Outbox: outbox}
		out = st.seams.outbox
	}
	st.srv = ts.New(cfg, out)
	st.srv.SLO.SetEnabled(true)
	if traced {
		st.srv.Obs.Tracer.SetSampleRate(1)
	} else {
		st.srv.Obs.Tracer.SetSampleRate(0)
	}
	outbox.SetSpanSink(st.srv.Obs)

	h := httpapi.New(st.srv)
	h.SetMaxInFlight(256)
	h.SetMaxBodyBytes(httpapi.DefaultMaxBodyBytes)
	h.SetWireBatch(true)
	h.SetWireBatchMaxBodyBytes(wire.MaxFrameBytes + 16)
	h.SetOutbox(outbox)
	if tiered != nil {
		h.SetStorage(tiered)
	}
	st.handler = h

	for _, q := range tr.lbqids {
		if err := st.srv.AddLBQIDSpec(q.user, q.spec); err != nil {
			st.close()
			return nil, fmt.Errorf("registering LBQID of user %d: %w", q.user, err)
		}
	}
	return st, nil
}

// close stops the outbox workers and, for the tiered store, checkpoints
// and closes it.
func (st *stack) close() error {
	st.outbox.Close()
	if st.tiered != nil {
		return st.tiered.Close()
	}
	return nil
}

// drainOutbox waits until the delivery queue is empty, so the heap is
// read without requests in flight.
func (st *stack) drainOutbox() {
	for i := 0; i < 5000 && st.outbox.QueueDepth() > 0; i++ {
		time.Sleep(time.Millisecond)
	}
}

// tempStoreDir makes an empty directory for a tiered store under base.
func tempStoreDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "tiered-")
}
