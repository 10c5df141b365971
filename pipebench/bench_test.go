package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"histanon/internal/mobility"
	"histanon/internal/phl"
	"histanon/internal/resilience"
	"histanon/internal/stindex"
	"histanon/internal/storage"
	"histanon/internal/ts"
	"histanon/internal/wire"
)

// seamInterfaces are the interfaces ts.New and ts.Server.MetricsRegistry
// resolve on the store, index and outbox they are given.
var seamInterfaces = []struct {
	name string
	has  func(any) bool
}{
	{"phl.Storer", func(v any) bool { _, ok := v.(phl.Storer); return ok }},
	{"stindex.Index", func(v any) bool { _, ok := v.(stindex.Index); return ok }},
	{"ts.FaultyStorage", func(v any) bool { _, ok := v.(ts.FaultyStorage); return ok }},
	{"ts.MetricsSource", func(v any) bool { _, ok := v.(ts.MetricsSource); return ok }},
	{"ts.Outbox", func(v any) bool { _, ok := v.(ts.Outbox); return ok }},
	{"ts.FallibleOutbox", func(v any) bool { _, ok := v.(ts.FallibleOutbox); return ok }},
	{"ts.TracedOutbox", func(v any) bool { _, ok := v.(ts.TracedOutbox); return ok }},
}

// TestWrappersKeepSeamInterfaces pins that a timing wrapper satisfies
// exactly the interfaces of what it wraps: a tiered-store wrapper that
// lost ts.FaultyStorage would silently turn off fail-closed suppression
// in the traced run.
func TestWrappersKeepSeamInterfaces(t *testing.T) {
	tiered, _, err := storage.Open(storeOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()
	outbox := resilience.NewOutbox(resilience.DeliveryFunc(func(*wire.Request) error { return nil }), resilience.Options{})
	defer outbox.Close()
	grid := stindex.NewGrid(500, 900)
	store := phl.NewStore()

	pairs := []struct {
		name          string
		bare, wrapped any
	}{
		{"tiered store", tiered, &timedTiered{TieredStore: tiered, ops: &seamOps{}}},
		{"in-memory store", store, &timedStore{Storer: store, ops: &seamOps{}}},
		{"grid", grid, &timedIndex{Index: grid, ops: &seamOps{}}},
		{"outbox", outbox, &timedOutbox{Outbox: outbox}},
	}
	for _, p := range pairs {
		for _, iface := range seamInterfaces {
			if bare, wrapped := iface.has(p.bare), iface.has(p.wrapped); bare != wrapped {
				t.Errorf("%s: bare implements %s = %v, wrapped = %v", p.name, iface.name, bare, wrapped)
			}
		}
	}
	if _, ok := any(&timedTiered{TieredStore: tiered}).(ts.FaultyStorage); !ok {
		t.Error("wrapped tiered store does not implement ts.FaultyStorage")
	}
}

// TestTracingIsTransparent runs a tiny population of every workload
// untraced, traced and untraced again: all output checks must pass, all
// three repetitions must make the same decisions, the traced one must
// yield exactly the listed per-layer metrics, and no ledger row may go
// below zero. The populations stay below the outbox queue bound, so no
// call can be shed and the digests are comparable.
func TestTracingIsTransparent(t *testing.T) {
	agents := map[string]int{"rush-1c": 200, "rural-tiered": 400}
	for _, w := range workloads {
		w.agents = agents[w.name]
		t.Run(w.name, func(t *testing.T) {
			tr, err := synthesize(w, 7)
			if err != nil {
				t.Fatal(err)
			}
			_, calls := tr.dayCounts(1)
			if calls == 0 {
				t.Fatal("tiny population makes no calls")
			}
			var reps []*repResult
			for _, traced := range []bool{false, true, false} {
				r, err := runRep(w, tr, traced, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				reps = append(reps, r)
				for _, v := range r.violations {
					t.Errorf("traced=%v: %s", traced, v)
				}
				if r.shedsTotal != 0 {
					t.Fatalf("traced=%v: %d calls shed", traced, r.shedsTotal)
				}
			}
			for _, v := range checkDigests(reps) {
				t.Error(v)
			}
			for _, v := range checkLedger(reps[1:2]) {
				t.Error(v)
			}
			computed := map[string]bool{"ledger.tracing_overhead": true, "ledger.attributed_frac": true}
			for name := range tracedLayers(reps[1]) {
				computed[name] = true
			}
			for name := range untracedLayers(reps[0]) {
				computed[name] = true
			}
			for name := range layerUnits {
				if !computed[name] {
					t.Errorf("per-layer metric %s is listed but never computed", name)
				}
				delete(computed, name)
			}
			for name := range computed {
				t.Errorf("per-layer metric %s is computed but not listed", name)
			}
		})
	}
}

// TestCheckLedgerCatchesDoubleCounting pins that the ledger check fails
// when a seam's time is counted twice: a store read timed outside the
// stages it is subtracted from drives a row below zero.
func TestCheckLedgerCatchesDoubleCounting(t *testing.T) {
	w, _ := workloadByName("rush-1c")
	w.agents = 200
	tr, err := synthesize(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runRep(w, tr, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if v := checkLedger([]*repResult{r}); len(v) != 0 {
		t.Fatalf("honest ledger fails its check: %v", v)
	}
	r.after.phl.history.ns += int64(r.measured.wallNs)
	if v := checkLedger([]*repResult{r}); len(v) == 0 {
		t.Fatal("a read counted twice passes the ledger check")
	}
}

// TestSynthesizeKeepsUserOrder pins the traffic model's ordering: each
// day is time-ordered, and every user's events arrive in exactly the
// order the generator made them.
func TestSynthesizeKeepsUserOrder(t *testing.T) {
	w, _ := workloadByName("rush-1c")
	w.agents = 150
	tr, err := synthesize(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := map[phl.UserID][]mobility.Event{}
	for d, evs := range tr.days {
		for i, ev := range evs {
			if i > 0 && ev.Point.T < evs[i-1].Point.T {
				t.Fatalf("day %d: event %d goes back in time", d, i)
			}
			got[ev.User] = append(got[ev.User], ev)
		}
	}
	sc, _ := mobility.ScenarioByName(w.scenario)
	cfg := sc.Config(w.agents, 3)
	cfg.Days = 2
	s := mobility.NewStream(cfg)
	for id := 0; id < w.agents; id++ {
		var want []mobility.Event
		s.AgentEvents(id, func(ev mobility.Event) { want = append(want, ev) })
		if !slices.Equal(got[phl.UserID(id)], want) {
			t.Fatalf("user %d: events reordered or lost (%d sent, %d generated)", id, len(got[phl.UserID(id)]), len(want))
		}
	}
}

// TestBenchmarkJSONMatchesCommand pins BENCHMARK.json to what the
// command prints: workloads it runs, and every metric with its unit.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json lists workload %s, which the command does not run", w.Name)
		}
	}
	units := func(entries []entry) map[string]string {
		m := map[string]string{}
		for _, e := range entries {
			m[e.Name] = e.Unit
		}
		return m
	}
	printed := map[string]string{}
	for name, m := range endToEnd(nil) {
		printed[name] = m.Unit
	}
	if got := units(spec.EndToEnd); !maps.Equal(got, printed) {
		t.Errorf("end_to_end lists %v, the command prints %v", got, printed)
	}
	if got := units(spec.PerLayer); !maps.Equal(got, layerUnits) {
		t.Errorf("per_layer lists %v, the command prints %v", got, layerUnits)
	}
}
