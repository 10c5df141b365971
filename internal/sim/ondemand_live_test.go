package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"histanon/internal/geo"
	"histanon/internal/mixzone"
	"histanon/internal/mobility"
	"histanon/internal/obs"
	"histanon/internal/phl"
	"histanon/internal/stindex"
	"histanon/internal/ts"
	"histanon/internal/wire"
)

// commuteLBQIDSpec is the paper's Example-1 commute pattern over the
// agent's own home and office, recurring on both simulated days.
func commuteLBQIDSpec(s *mobility.Stream, a mobility.Agent) string {
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

// TestOnDemandLiveVersusHindsight drives the rush-hour registry scenario
// through a trusted server in time order, as a live deployment ingests
// it, and counts the audited rotations by zone. The divergence test
// needs samples from after the request, which a live server never
// holds, so every on-demand rotation must be a temporal-only fallback
// zone. The second half replays the search over the finished PHL at
// the same request points: there it must succeed, which shows the
// search itself works and that its watermark guard does not fire in
// hindsight.
func TestOnDemandLiveVersusHindsight(t *testing.T) {
	const agents, k = 400, 5
	sc, ok := mobility.ScenarioByName("rush-hour")
	if !ok {
		t.Fatal("rush-hour scenario missing from the registry")
	}
	div := mixzone.Divergence{MinAngle: 0.3}
	srv := ts.New(ts.Config{
		DefaultPolicy: ts.Policy{K: k},
		OnDemand:      mixzone.OnDemand{Quiet: 600, Divergence: div, FallbackRadius: 800},
		Services:      map[string]ts.ServiceSpec{"svc": {Name: "svc", Tolerance: compTolerance}},
	}, ts.OutboxFunc(func(*wire.Request) {}))
	var audit bytes.Buffer
	auditLog := obs.NewAuditLog(&audit)
	srv.Obs.SetAudit(auditLog)

	cfg := sc.Config(agents, 1)
	cfg.Days = 2
	s := mobility.NewStream(cfg)
	var events []mobility.Event
	for id := 0; id < agents; id++ {
		a := s.AgentEvents(id, func(ev mobility.Event) { events = append(events, ev) })
		if !a.Commuter {
			continue
		}
		if err := srv.AddLBQIDSpec(a.User, commuteLBQIDSpec(s, a)); err != nil {
			t.Fatal(err)
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Point.T < events[j].Point.T })

	type request struct {
		u phl.UserID
		p geo.STPoint
	}
	var unlinked []request
	for _, ev := range events {
		if !ev.Request {
			srv.RecordLocation(ev.User, ev.Point)
			continue
		}
		if dec := srv.Request(ev.User, ev.Point, "svc", nil); dec.Unlinked {
			unlinked = append(unlinked, request{ev.User, ev.Point})
		}
	}
	if err := auditLog.Flush(); err != nil {
		t.Fatal(err)
	}
	zones := map[string]int{}
	lines := bufio.NewScanner(&audit)
	for lines.Scan() {
		var e obs.Event
		if err := json.Unmarshal(lines.Bytes(), &e); err != nil {
			t.Fatalf("audit record %q: %v", lines.Text(), err)
		}
		if e.Kind == obs.KindRotation {
			zones[e.Zone]++
		}
	}
	if zones["ondemand"] != 0 {
		t.Fatalf("%d live rotations used a trajectory-diverging on-demand zone; the forward heading test cannot succeed on a time-ordered PHL (rotations by zone: %v)",
			zones["ondemand"], zones)
	}
	if zones["ondemand_fallback"] == 0 {
		t.Fatalf("no fallback rotations: the scenario never exercised on-demand unlinking (rotations by zone: %v)", zones)
	}

	// Hindsight: the same requests against the finished PHL.
	store := srv.Store()
	idx := stindex.NewGrid(500, 900)
	for _, u := range store.Users() {
		for _, p := range store.History(u).Points() {
			idx.Insert(u, p)
		}
	}
	hindsight := 0
	for _, r := range unlinked {
		if _, ok := mixzone.FindDiverging(idx, store, r.u, r.p.P, r.p.T, k-1, div, geo.STMetric{}); ok {
			hindsight++
		}
	}
	if hindsight == 0 {
		t.Fatalf("the search found k-1 diverging users at none of %d request points over the finished PHL", len(unlinked))
	}
	t.Logf("live rotations by zone: %v; hindsight search succeeded at %d of %d unlinking requests",
		zones, hindsight, len(unlinked))
}
