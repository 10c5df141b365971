package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"histanon/internal/obs"
	"histanon/internal/resilience"
	"histanon/internal/storage"
)

// snapshot reads every counter a repetition compares before and after
// the measured phase.
type snapshot struct {
	phl, stindex, storage seamReading
	admit                 opCount
	stageSec              [obs.NumStages]float64
	counters              map[string]int64
	sloDecisions          int64
	shedQueueFull         int64
	store                 storage.Stats
	mallocs, allocBytes   uint64
	gcCPU, totalCPU       float64
}

var counterNames = []string{"requests", "forwarded", "suppressed", "generalized", "hk_failures", "unlinkings"}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeSnapshot(st *stack) snapshot {
	s := snapshot{
		phl:           st.seams.phl.read(),
		stindex:       st.seams.stindex.read(),
		storage:       st.seams.storage.read(),
		admit:         st.seams.outbox.read(),
		counters:      map[string]int64{},
		sloDecisions:  st.srv.SLO.DecisionsTotal(),
		shedQueueFull: st.outbox.Events.Get(resilience.EventShedQueueFull),
	}
	for i, h := range st.srv.Obs.StageSeconds {
		s.stageSec[i] = h.Sum()
	}
	for _, name := range counterNames {
		s.counters[name] = st.srv.Counters.Get(name)
	}
	if st.tiered != nil {
		s.store = st.tiered.Stats()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes = ms.Mallocs, ms.TotalAlloc
	metrics.Read(cpuSamples)
	s.gcCPU, s.totalCPU = cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	return s
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// repResult is one repetition: set-up, then the measured day.
type repResult struct {
	seed       int64 // traffic seed
	traced     bool
	setupS     float64
	heapMB     float64
	recoveryS  float64
	digest     uint64
	shedsTotal int64
	measured   phaseStats
	before     snapshot
	after      snapshot
	violations []string
}

func (r *repResult) eventsPerS() float64 {
	return float64(r.measured.events) / (float64(r.measured.wallNs) / 1e9)
}

// runRep builds a server, preloads day 0, and measures day 1.
func runRep(w workload, tr *traffic, traced bool, workdir string) (*repResult, error) {
	r := &repResult{seed: tr.seed, traced: traced}
	ev0, calls0 := tr.dayCounts(0)
	ev1, calls1 := tr.dayCounts(1)
	runtime.GC()

	t0 := time.Now()
	var st *stack
	var dir string
	var pd uint64 // day-0 decision digest
	if w.tiered {
		var err error
		if dir, err = tempStoreDir(workdir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		store, _, err := storage.Open(storeOptions(dir))
		if err != nil {
			return nil, fmt.Errorf("opening store: %w", err)
		}
		pre, err := buildStack(tr, store, traced)
		if err != nil {
			store.Close()
			return nil, err
		}
		pd = r.preload(tr, pre)
		r.checkServer(pre, calls0, ev0)
		r.shedsTotal += pre.outbox.Events.Get(resilience.EventShedQueueFull)
		if err := pre.close(); err != nil {
			return nil, fmt.Errorf("closing store: %w", err)
		}
		store, info, err := storage.Open(storeOptions(dir))
		if err != nil {
			return nil, fmt.Errorf("reopening store: %w", err)
		}
		r.recoveryS = info.Duration.Seconds()
		if st, err = buildStack(tr, store, traced); err != nil {
			store.Close()
			return nil, err
		}
		calls0 = 0 // the reopened server has seen no calls yet
	} else {
		var err error
		if st, err = buildStack(tr, nil, traced); err != nil {
			return nil, err
		}
		pd = r.preload(tr, st)
	}
	r.setupS = time.Since(t0).Seconds()

	c := newClient(st, tr.agents, traced)
	c.reserve(tr.days[1])
	st.drainOutbox()
	heap0 := liveHeapMB()
	r.before = takeSnapshot(st)
	r.measured = c.run(tr.days[1])
	r.after = takeSnapshot(st)
	st.drainOutbox()
	r.heapMB = liveHeapMB() - heap0
	r.digest = combineDigests(pd, c.digest.Sum64())
	r.shedsTotal += st.outbox.Events.Get(resilience.EventShedQueueFull)
	r.violations = append(r.violations, r.measured.violations...)
	if r.measured.events != ev1 || r.measured.calls != calls1 {
		r.violate("measured day sent %d events / %d calls, traffic has %d / %d",
			r.measured.events, r.measured.calls, ev1, calls1)
	}
	r.checkServer(st, calls0+calls1, ev0+ev1)
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("closing store: %w", err)
	}
	return r, nil
}

// preload drives day 0 through st, keeping its violations, and returns
// its decision digest.
func (r *repResult) preload(tr *traffic, st *stack) uint64 {
	c := newClient(st, tr.agents, false)
	ps := c.run(tr.days[0])
	r.violations = append(r.violations, ps.violations...)
	return c.digest.Sum64()
}

func (r *repResult) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// checkServer compares the server's own counters with what was sent.
func (r *repResult) checkServer(st *stack, calls, events int) {
	c := st.srv.Counters
	if got := c.Get("requests"); got != int64(calls) {
		r.violate("server counted %d requests, %d calls were sent", got, calls)
	}
	if f, s, req := c.Get("forwarded"), c.Get("suppressed"), c.Get("requests"); f+s != req {
		r.violate("forwarded %d + suppressed %d != requests %d", f, s, req)
	}
	if got := st.srv.SLO.DecisionsTotal(); got != int64(calls) {
		r.violate("SLO engine saw %d decisions, %d calls were sent", got, calls)
	}
	if got := st.srv.Store().NumSamples(); got != events {
		r.violate("store holds %d samples, %d events were sent", got, events)
	}
}
