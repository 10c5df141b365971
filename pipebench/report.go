package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"histanon/internal/obs"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of xs, which it sorts.
func percentile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return float64(xs[max(i, 0)])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func perRep(reps []*repResult, f func(*repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// endToEnd computes the user-visible metrics over untraced repetitions.
func endToEnd(reps []*repResult) map[string]metric {
	var lat []int64
	var areas []float64
	var events, failed, calls, fwd, gen, hk float64
	for _, r := range reps {
		m := &r.measured
		lat = append(lat, m.lat...)
		areas = append(areas, m.areas...)
		events += float64(m.events)
		failed += float64(m.failed)
		calls += float64(m.calls)
		fwd += float64(m.forwarded)
		gen += float64(m.generalized)
		hk += float64(m.hkGen)
	}
	return map[string]metric{
		"events_per_s":    {median(perRep(reps, (*repResult).eventsPerS)), "1/s"},
		"call_p50_us":     {percentile(lat, 0.50) / 1e3, "us"},
		"call_p99_us":     {percentile(lat, 0.99) / 1e3, "us"},
		"ok_frac":         {1 - ratio(failed, events), "ratio"},
		"setup_s":         {median(perRep(reps, func(r *repResult) float64 { return r.setupS })), "s"},
		"heap_growth_mb":  {median(perRep(reps, func(r *repResult) float64 { return r.heapMB })), "MB"},
		"forwarded_frac":  {ratio(fwd, calls), "ratio"},
		"hk_frac":         {ratio(hk, gen), "ratio"},
		"box_area_p50_m2": {median(areas), "m2"},
	}
}

// layerUnits lists every per-layer metric with its unit; a traced run
// reports all of them on every workload (0 where a layer is not run).
var layerUnits = map[string]string{
	"httpapi.loc_batch_us":                  "us",
	"httpapi.call_us":                       "us",
	"wire.frames_per_batch":                 "count",
	"wire.bytes_per_event":                  "B",
	"bench.encode_ns_per_event":             "ns",
	"phl.record_ns":                         "ns",
	"phl.history_ns":                        "ns",
	"phl.history_calls_per_call":            "count",
	"stindex.insert_ns":                     "ns",
	"stindex.knn_ns":                        "ns",
	"stindex.knn_calls_per_call":            "count",
	"lbqid.match_ns":                        "ns",
	"lbqid.matched_frac":                    "ratio",
	"generalize.knn_unlink_self_ns":         "ns",
	"generalize.box_ns":                     "ns",
	"generalize.tolerance_ns":               "ns",
	"ts.unlink_ns":                          "ns",
	"ts.unlink_frac":                        "ratio",
	"ts.suppressed_frac":                    "ratio",
	"resilience.admit_ns":                   "ns",
	"resilience.queue_depth_max":            "count",
	"resilience.shed_queue_full":            "count",
	"resilience.queue_full_waits":           "count",
	"storage.record_ns":                     "ns",
	"storage.history_ns":                    "ns",
	"storage.knn_ns":                        "ns",
	"storage.knn_calls_per_call":            "count",
	"storage.cold_hit_ratio":                "ratio",
	"storage.cold_misses_per_call":          "count",
	"storage.wal_bytes_per_event":           "B",
	"storage.demoted_frac":                  "ratio",
	"storage.recovery_s":                    "s",
	"slo.decisions":                         "count",
	"runtime.allocs_per_event":              "count",
	"runtime.bytes_per_event":               "B",
	"runtime.gc_cpu_frac":                   "ratio",
	"ledger.bench_encode_ns_per_event":      "ns",
	"ledger.bench_check_ns_per_event":       "ns",
	"ledger.server_other_ns_per_event":      "ns",
	"ledger.phl_ns_per_event":               "ns",
	"ledger.stindex_ns_per_event":           "ns",
	"ledger.storage_ns_per_event":           "ns",
	"ledger.lbqid_ns_per_event":             "ns",
	"ledger.generalize_unlink_ns_per_event": "ns",
	"ledger.ts_forward_ns_per_event":        "ns",
	"ledger.resilience_ns_per_event":        "ns",
	"ledger.unattributed_ns_per_event":      "ns",
	"ledger.client_ns_per_event":            "ns",
	"ledger.attributed_frac":                "ratio",
	"ledger.tracing_overhead":               "ratio",
}

// tracedLayers computes one traced repetition's per-layer values and
// ledger rows from the measured phase's before/after snapshots.
func tracedLayers(r *repResult) map[string]float64 {
	m := &r.measured
	b, a := &r.before, &r.after
	events, calls := float64(m.events), float64(m.calls)
	pl, ix, sg := a.phl.sub(b.phl), a.stindex.sub(b.stindex), a.storage.sub(b.storage)
	admit := a.admit.sub(b.admit)
	var stage [obs.NumStages]float64 // ns
	for i := range stage {
		stage[i] = (a.stageSec[i] - b.stageSec[i]) * 1e9
	}
	ctr := func(name string) float64 { return float64(a.counters[name] - b.counters[name]) }
	mean := func(o opCount) float64 { return ratio(float64(o.ns), float64(o.n)) }
	gen := ctr("generalized")
	reads := float64(pl.readNs() + ix.readNs() + sg.readNs())
	algo := stage[obs.StageKNN] + stage[obs.StageBox] + stage[obs.StageTolerance] + stage[obs.StageUnlink]
	coldHits := float64(a.store.ColdHits - b.store.ColdHits)
	coldMisses := float64(a.store.ColdMisses - b.store.ColdMisses)

	v := map[string]float64{
		"httpapi.loc_batch_us":          ratio(float64(m.locHTTPNs), float64(m.locBatches)) / 1e3,
		"httpapi.call_us":               ratio(float64(m.callHTTPNs), calls) / 1e3,
		"wire.frames_per_batch":         ratio(float64(m.locFrames), float64(m.locBatches)),
		"wire.bytes_per_event":          ratio(float64(m.bytes), events),
		"bench.encode_ns_per_event":     ratio(float64(m.encodeNs), events),
		"phl.record_ns":                 mean(pl.record),
		"phl.history_ns":                mean(pl.history),
		"phl.history_calls_per_call":    ratio(float64(pl.history.n), calls),
		"stindex.insert_ns":             mean(ix.insert),
		"stindex.knn_ns":                mean(ix.knn),
		"stindex.knn_calls_per_call":    ratio(float64(ix.knn.n), calls),
		"lbqid.match_ns":                ratio(stage[obs.StageMatch], calls),
		"lbqid.matched_frac":            ratio(gen, calls),
		"generalize.knn_unlink_self_ns": ratio(stage[obs.StageKNN]+stage[obs.StageUnlink]-reads, gen),
		"generalize.box_ns":             ratio(stage[obs.StageBox], gen),
		"generalize.tolerance_ns":       ratio(stage[obs.StageTolerance], gen),
		"ts.unlink_ns":                  ratio(stage[obs.StageUnlink], ctr("hk_failures")),
		"ts.unlink_frac":                ratio(ctr("unlinkings"), calls),
		"ts.suppressed_frac":            ratio(ctr("suppressed"), calls),
		"resilience.admit_ns":           mean(admit),
		"resilience.queue_depth_max":    float64(m.queueDepthMax),
		"resilience.shed_queue_full":    float64(a.shedQueueFull - b.shedQueueFull),
		"resilience.queue_full_waits":   float64(m.queueFullWaits),
		"storage.record_ns":             mean(sg.record),
		"storage.history_ns":            mean(sg.history),
		"storage.knn_ns":                mean(sg.knn),
		"storage.knn_calls_per_call":    ratio(float64(sg.knn.n), calls),
		"storage.cold_hit_ratio":        ratio(coldHits, coldHits+coldMisses),
		"storage.cold_misses_per_call":  ratio(coldMisses, calls),
		"storage.wal_bytes_per_event":   ratio(float64(a.store.WALBytes-b.store.WALBytes), events),
		"storage.demoted_frac":          ratio(float64(a.store.DemotedSamples-b.store.DemotedSamples), events),
		"storage.recovery_s":            r.recoveryS,
		"slo.decisions":                 float64(a.sloDecisions - b.sloDecisions),
	}

	// The ledger: client time per event, split into disjoint rows. Every
	// seam and stage interval lies inside a ServeHTTP call; store and
	// index reads lie inside the Algorithm 1 and unlink stages, and
	// admission inside the forward stage.
	client := float64(m.wallNs)
	http := float64(m.locHTTPNs + m.callHTTPNs)
	rows := map[string]float64{
		"bench_encode":      float64(m.encodeNs),
		"bench_check":       float64(m.checkNs),
		"phl":               float64(pl.totalNs()),
		"stindex":           float64(ix.totalNs()),
		"storage":           float64(sg.totalNs()),
		"lbqid":             stage[obs.StageMatch],
		"generalize_unlink": algo - reads,
		"ts_forward":        stage[obs.StageForward] - float64(admit.ns),
		"resilience":        float64(admit.ns),
	}
	inServer := 0.0
	for name, ns := range rows {
		if name != "bench_encode" && name != "bench_check" {
			inServer += ns
		}
	}
	rows["server_other"] = http - inServer
	rows["unattributed"] = client - http - rows["bench_encode"] - rows["bench_check"]
	rows["client"] = client
	for name, ns := range rows {
		v["ledger."+name+"_ns_per_event"] = ratio(ns, events)
	}
	return v
}

// untracedLayers computes the runtime metrics of an untraced repetition.
func untracedLayers(r *repResult) map[string]float64 {
	events := float64(r.measured.events)
	b, a := &r.before, &r.after
	return map[string]float64{
		"runtime.allocs_per_event": ratio(float64(a.mallocs-b.mallocs), events),
		"runtime.bytes_per_event":  ratio(float64(a.allocBytes-b.allocBytes), events),
		"runtime.gc_cpu_frac":      ratio(a.gcCPU-b.gcCPU, a.totalCPU-b.totalCPU),
	}
}

// perLayer takes, for every per-layer metric, the median over the
// repetitions that produce it. Ledger rows are pooled instead (total ns
// over total events), so they still sum to the client time; the tracing
// overhead compares the median ns per event of the two kinds.
func perLayer(untraced, traced []*repResult) map[string]metric {
	vals := map[string][]float64{}
	ledger := map[string]float64{}
	events := 0.0
	for _, r := range traced {
		n := float64(r.measured.events)
		events += n
		for k, x := range tracedLayers(r) {
			if strings.HasPrefix(k, "ledger.") {
				ledger[k] += x * n
			} else {
				vals[k] = append(vals[k], x)
			}
		}
	}
	for k, total := range ledger {
		vals[k] = []float64{total / events}
	}
	vals["ledger.attributed_frac"] = []float64{attributedFrac(ledger)}
	for _, r := range untraced {
		for k, x := range untracedLayers(r) {
			vals[k] = append(vals[k], x)
		}
	}
	nsPerEvent := func(r *repResult) float64 { return ratio(float64(r.measured.wallNs), float64(r.measured.events)) }
	vals["ledger.tracing_overhead"] = []float64{
		ratio(median(perRep(traced, nsPerEvent)), median(perRep(untraced, nsPerEvent))) - 1,
	}
	out := map[string]metric{}
	for name, unit := range layerUnits {
		out[name] = metric{median(vals[name]), unit}
	}
	return out
}

// checkLedger requires every traced repetition's per-layer values to be
// non-negative and its attributed share to lie in [0, 1]. The rows sum
// to client time by construction, so a seam or stage counted twice — a
// read made outside the stages it is subtracted from, or two timed
// intervals that overlap — shows only as a row driven below zero.
func checkLedger(traced []*repResult) []string {
	var out []string
	for _, r := range traced {
		v := tracedLayers(r)
		names := make([]string, 0, len(v))
		for name := range v {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if v[name] < 0 {
				out = append(out, fmt.Sprintf("city %d: traced %s is %g, below zero", r.seed, name, v[name]))
			}
		}
		if f := attributedFrac(v); f < 0 || f > 1 {
			out = append(out, fmt.Sprintf("city %d: ledger.attributed_frac %g is outside [0, 1]", r.seed, f))
		}
	}
	return out
}

// attributedFrac is the share of client time the ledger's rows other than
// the unattributed residual account for.
func attributedFrac(v map[string]float64) float64 {
	return 1 - ratio(v["ledger.unattributed_ns_per_event"], v["ledger.client_ns_per_event"])
}
