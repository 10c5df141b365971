package check

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"

	"histanon/internal/geo"
	"histanon/internal/httpapi"
	"histanon/internal/obs"
	"histanon/internal/phl"
	"histanon/internal/tgran"
	"histanon/internal/ts"
	"histanon/internal/wire"
)

// Codec differential oracle: one seeded workload of location updates and
// service calls is run twice against two identically configured trusted
// servers. The text leg dispatches ops directly into the server. The
// binary leg encodes the same ops as wire frames, packs them into batch
// frames and posts every batch through the real POST /v1/batch handler
// (httpapi.Handler.ServeHTTP), reading its decisions back from the
// decision frames the handler returns. Both legs round-trip every TS→SP
// request and SP→TS response through the text codec. The two legs must
// be observationally identical: byte-identical decisions, forwarded
// requests, responses, audit logs (including trace_ids) and achieved-k
// histograms. Any difference is an ingest bug — the binary wire format
// or the batch handler silently altering what the privacy pipeline sees
// or says.
//
// Determinism notes (why byte-identical comparison is sound):
//   - pseudonym.Manager mints sequence-numbered pseudonyms, so equal
//     rotation histories yield equal pseudonyms;
//   - every service call carries a seeded parent trace context, and the
//     audit log records the parent's trace id, so trace_ids match even
//     though span ids are freshly minted;
//   - trajectories are continuous random walks with no duplicated or
//     lattice-snapped samples, so k-nearest distances are distinct and
//     query results do not depend on index insertion order — which is
//     what makes the concurrent-ingest schedule comparable at all.

// CodecWorkloadConfig parameterizes one codec workload. The zero value
// of any field selects a default, so {Seed} alone is reproducible.
type CodecWorkloadConfig struct {
	// Seed drives every random choice.
	Seed int64
	// Users is the population size.
	Users int
	// Locations is the number of plain location updates.
	Locations int
	// Calls is the number of service calls issued after the crowd forms.
	Calls int
	// Extent is the side (meters) of the roamed square.
	Extent float64
	// TimeSpan is the schedule duration in seconds.
	TimeSpan int64
	// TimeScale is the metric's seconds-to-meters factor.
	TimeScale float64
}

func (c CodecWorkloadConfig) withDefaults() CodecWorkloadConfig {
	if c.Users <= 0 {
		c.Users = 16
	}
	if c.Locations <= 0 {
		c.Locations = 200
	}
	if c.Calls <= 0 {
		c.Calls = 40
	}
	if c.Extent <= 0 {
		c.Extent = 1500
	}
	if c.TimeSpan <= 0 {
		c.TimeSpan = 3600
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 0.5
	}
	return c
}

// CodecOp is one scheduled operation: a location update (Call == false)
// or a service call.
type CodecOp struct {
	Call    bool
	User    phl.UserID
	P       geo.STPoint
	Service string
	Data    map[string]string
	// Parent is the call's deterministic upstream trace context (calls
	// only; its trace id is what audit records must agree on). The zero
	// value means untraced.
	Parent obs.TraceContext
}

// CodecWorkload is a reproducible op schedule: Locations location
// updates (the crowd), then Calls service calls interleaved with more
// movement. The location prefix is partitionable by user — per-user
// order is trajectory order — which the concurrent schedule exploits.
type CodecWorkload struct {
	Cfg  CodecWorkloadConfig
	Locs []CodecOp // phase 1: crowd formation, partitionable by user
	Ops  []CodecOp // phase 2: service calls (and their movement), in order
}

var codecServices = []string{"navigation", "weather", "poi"}

// codecLBQIDSpec is the pattern some users carry; the schedule's
// timestamps start at 06:00 so calls land inside the element window.
const codecLBQIDSpec = `
lbqid "hotspot" {
    element area [0,400]x[0,400] time [06:00,10:00]
    recurrence 1.Days
}`

// NewCodecWorkload generates the schedule determined by cfg. All
// coordinates are continuous (never snapped, never duplicated) so
// nearest-neighbor distances are tie-free.
func NewCodecWorkload(cfg CodecWorkloadConfig) *CodecWorkload {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &CodecWorkload{Cfg: cfg}

	base := 6 * tgran.Hour // calls fall inside the LBQID element window
	half := cfg.Extent / 2
	step := cfg.Extent / 25
	pos := make([]geo.Point, cfg.Users)
	for u := range pos {
		pos[u] = geo.Point{X: rng.Float64()*cfg.Extent - half, Y: rng.Float64()*cfg.Extent - half}
	}
	tick := float64(cfg.TimeSpan) / float64(cfg.Locations+cfg.Calls)
	now := 0
	move := func(u int) geo.STPoint {
		p := pos[u]
		p.X = clamp(p.X+rng.NormFloat64()*step, -half, half)
		p.Y = clamp(p.Y+rng.NormFloat64()*step, -half, half)
		pos[u] = p
		now++
		return geo.STPoint{P: p, T: base + int64(float64(now)*tick)}
	}

	for i := 0; i < cfg.Locations; i++ {
		u := i % cfg.Users
		w.Locs = append(w.Locs, CodecOp{User: phl.UserID(u), P: move(u)})
	}
	for i := 0; i < cfg.Calls; i++ {
		u := rng.Intn(cfg.Users)
		op := CodecOp{
			Call:    true,
			User:    phl.UserID(u),
			P:       move(u),
			Service: codecServices[rng.Intn(len(codecServices))],
			Parent:  mintCodecParent(rng),
		}
		// Occasionally steer a call into the LBQID element so pattern
		// matching, session generalization and exposure all fire.
		if rng.Intn(3) == 0 {
			op.P.P = geo.Point{X: rng.Float64() * 400, Y: rng.Float64() * 400}
		}
		switch rng.Intn(4) {
		case 0: // no data
		case 1:
			op.Data = map[string]string{"q": "café & bar"}
		default:
			op.Data = map[string]string{
				"dest": fmt.Sprintf("poi-%d", rng.Intn(100)),
				"lang": "en",
			}
		}
		w.Ops = append(w.Ops, op)
		// Movement by other users between calls keeps the index evolving
		// mid-phase, so later calls see state earlier calls did not.
		for j := 0; j < 2; j++ {
			v := rng.Intn(cfg.Users)
			w.Ops = append(w.Ops, CodecOp{User: phl.UserID(v), P: move(v)})
		}
	}
	return w
}

// mintCodecParent draws a deterministic sampled-or-not trace context.
func mintCodecParent(rng *rand.Rand) obs.TraceContext {
	var tc obs.TraceContext
	for tc.TraceID == [16]byte{} {
		rng.Read(tc.TraceID[:])
	}
	for tc.SpanID == [8]byte{} {
		rng.Read(tc.SpanID[:])
	}
	if rng.Intn(2) == 0 {
		tc.Flags = obs.FlagSampled
	}
	return tc
}

// codecRun is one leg's complete observable behavior.
type codecRun struct {
	leg       string
	decisions []string // one frameFingerprint per call, in schedule order
	requests  []string // canonical text encoding of each forwarded request
	responses []string // canonical text encoding of each inbox delivery
	audit     string   // raw audit JSONL bytes
	traceIDs  []string // trace_id per audit event, in log order
	achievedK []int64  // obs.Observer.AchievedK bucket counts
	counters  string   // ts.Server.Counters in canonical render
	divs      []Divergence
}

func (r *codecRun) fail(kind string, q int, format string, args ...any) {
	r.divs = append(r.divs, Divergence{Index: r.leg, Kind: kind, Query: q,
		Detail: fmt.Sprintf(format, args...)})
}

// newCodecServer builds one leg's trusted server with the shared
// deterministic configuration and an audit sink into buf. The outbox
// round-trips every forwarded request and its deterministic SP response
// through the text codec.
func newCodecServer(w *CodecWorkload, run *codecRun, buf *bytes.Buffer) *ts.Server {
	var srv *ts.Server
	out := ts.OutboxFunc(func(req *wire.Request) {
		text, err := wire.EncodeRequest(req)
		if err != nil {
			run.fail("request-codec", len(run.requests), "encode: %v", err)
			return
		}
		rt, err := wire.ParseRequest(text)
		if err != nil {
			run.fail("request-codec", len(run.requests), "round-trip: %v", err)
			return
		}
		run.requests = append(run.requests, text)
		resp := &wire.Response{ID: rt.ID, Service: rt.Service, Payload: map[string]string{
			"status": "ok",
			"echo":   fmt.Sprintf("%s#%d", rt.Service, rt.ID),
		}}
		line, err := wire.EncodeResponse(resp)
		if err != nil {
			run.fail("response-codec", len(run.responses), "encode: %v", err)
			return
		}
		back, err := wire.ParseResponse(line)
		if err != nil {
			run.fail("response-codec", len(run.responses), "round-trip: %v", err)
			return
		}
		srv.DeliverResponse(back)
	})
	srv = ts.New(ts.Config{
		Metric:        geo.STMetric{TimeScale: w.Cfg.TimeScale},
		DefaultPolicy: ts.Policy{K: 3},
	}, out)
	srv.Obs.SetAudit(obs.NewAuditLog(buf))

	levels := []ts.Level{ts.Low, ts.Medium, ts.High}
	for u := 0; u < w.Cfg.Users; u++ {
		id := phl.UserID(u)
		srv.RegisterUser(id, ts.PolicyForLevel(levels[u%len(levels)]))
		if u%4 == 0 {
			if err := srv.AddLBQIDSpec(id, codecLBQIDSpec); err != nil {
				run.fail("setup", -1, "lbqid spec: %v", err)
			}
		}
		srv.SetInbox(id, ts.InboxFunc(func(resp *wire.Response) {
			text, err := wire.EncodeResponse(resp)
			if err != nil {
				run.fail("response-codec", len(run.responses), "canonical render: %v", err)
				return
			}
			run.responses = append(run.responses, text)
		}))
	}
	return srv
}

// finish captures the post-run observable state.
func (r *codecRun) finish(srv *ts.Server, buf *bytes.Buffer) {
	if err := srv.Obs.AuditSink().Flush(); err != nil {
		r.fail("audit", -1, "flush: %v", err)
	}
	r.audit = buf.String()
	events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		r.fail("audit", -1, "read back: %v", err)
	}
	for _, e := range events {
		r.traceIDs = append(r.traceIDs, e.TraceID)
	}
	r.achievedK = srv.Obs.AchievedK.BucketCounts()
	r.counters = srv.Counters.String()
}

// decisionFrameOf projects a decision onto the fields /v1/batch returns
// for it. It is the oracle's own statement of that projection, written
// independently of the handler's.
func decisionFrameOf(d ts.Decision) wire.DecisionFrame {
	f := wire.DecisionFrame{
		Forwarded:      d.Forwarded,
		Generalized:    d.Generalized,
		HKAnonymity:    d.HKAnonymity,
		Unlinked:       d.Unlinked,
		AtRisk:         d.AtRisk,
		Suppressed:     d.Suppressed,
		Degraded:       d.Degraded,
		QIDExposed:     d.QIDExposed,
		MatchedLBQID:   d.MatchedLBQID,
		DegradedReason: d.DegradedReason,
		TraceID:        d.TraceID(),
	}
	if d.Request != nil {
		f.Pseudonym = string(d.Request.Pseudonym)
		f.HasContext = true
		f.Context = d.Request.Context
	}
	return f
}

// frameFingerprint renders every field of a decision frame. Coordinates
// print in Go's shortest round-trip form, so any bit of drift shows
// (geo.STBox.String rounds to 0.1 m and would hide it).
func frameFingerprint(i int, f wire.DecisionFrame) string {
	ctx := "-"
	if f.HasContext {
		a, t := f.Context.Area, f.Context.Time
		ctx = fmt.Sprintf("[%v,%v]x[%v,%v]@[%d,%d]", a.MinX, a.MaxX, a.MinY, a.MaxY, t.Start, t.End)
	}
	return fmt.Sprintf("call %d fwd=%t gen=%t hk=%t lbqid=%q unlink=%t risk=%t sup=%t deg=%t(%s) qid=%t trace=%s pseudo=%q ctx=%s",
		i, f.Forwarded, f.Generalized, f.HKAnonymity, f.MatchedLBQID,
		f.Unlinked, f.AtRisk, f.Suppressed, f.Degraded, f.DegradedReason,
		f.QIDExposed, f.TraceID, f.Pseudonym, ctx)
}

// runTextLeg executes the schedule with direct dispatch. When
// concurrent is true the location prefix is ingested by one goroutine
// per user.
func runTextLeg(w *CodecWorkload, concurrent bool) *codecRun {
	run := &codecRun{leg: "text"}
	var buf bytes.Buffer
	srv := newCodecServer(w, run, &buf)

	ingest := func(op CodecOp) {
		if !op.Call {
			srv.RecordLocation(op.User, op.P)
			return
		}
		d := srv.RequestTraced(op.User, op.P, op.Service, op.Data, op.Parent)
		run.decisions = append(run.decisions, frameFingerprint(len(run.decisions), decisionFrameOf(d)))
	}
	forEachUserStream(w.Locs, w.Cfg.Users, concurrent, ingest)
	for _, op := range w.Ops {
		ingest(op)
	}
	run.finish(srv, &buf)
	return run
}

// Batch sizes of the binary leg: the crowd prefix goes in batches of
// codecLocBatch location frames; the call phase in batches of
// codecOpBatch ops, so calls and movement share batches at every
// offset and the handler's in-batch ordering is under test.
const (
	codecLocBatch = 16
	codecOpBatch  = 5
)

// runBinaryLeg executes the same schedule through POST /v1/batch. When
// concurrent is true the location prefix is posted by one goroutine per
// user stream, so concurrent handler calls interleave.
func runBinaryLeg(w *CodecWorkload, concurrent bool) *codecRun {
	run := &codecRun{leg: "binary"}
	var buf bytes.Buffer
	srv := newCodecServer(w, run, &buf)
	h := httpapi.New(srv)

	// post sends ops as one batch and returns the decision frames the
	// handler answers with, one per service call.
	post := func(ops []CodecOp) ([]wire.DecisionFrame, error) {
		var frames []byte
		calls := 0
		for _, op := range ops {
			if !op.Call {
				frames = wire.AppendLocation(frames, wire.LocationUpdate{
					User: int64(op.User), X: op.P.P.X, Y: op.P.P.Y, T: op.P.T,
				})
				continue
			}
			var tp string
			if op.Parent != (obs.TraceContext{}) {
				tp = op.Parent.Traceparent()
			}
			var err error
			frames, err = wire.AppendServiceCall(frames, wire.ServiceCall{
				User: int64(op.User), X: op.P.P.X, Y: op.P.P.Y, T: op.P.T,
				Service: op.Service, Traceparent: tp, Data: op.Data,
			})
			if err != nil {
				return nil, fmt.Errorf("encode call: %v", err)
			}
			calls++
		}
		batch, err := wire.AppendBatch(nil, len(ops), frames)
		if err != nil {
			return nil, fmt.Errorf("encode batch: %v", err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(batch))
		req.Header.Set("Content-Type", httpapi.WireContentType)
		req.Header.Set("Accept", httpapi.WireContentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		dec, err := wire.NewBatchDecoder(rec.Body.Bytes())
		if err != nil {
			return nil, fmt.Errorf("response: %v", err)
		}
		var out []wire.DecisionFrame
		for dec.Next() {
			if dec.Type() != wire.FrameDecision {
				return nil, fmt.Errorf("response carries a %s frame", dec.Type())
			}
			f, err := wire.ParseDecisionPayload(dec.Flags(), dec.Payload())
			if err != nil {
				return nil, fmt.Errorf("response: %v", err)
			}
			out = append(out, f)
		}
		if err := dec.Err(); err != nil {
			return nil, fmt.Errorf("response: %v", err)
		}
		if len(out) != calls {
			return nil, fmt.Errorf("%d decisions for %d calls", len(out), calls)
		}
		return out, nil
	}

	// Phase 1: the location prefix, whose decisions are empty.
	ingestStream := func(ops []CodecOp) {
		for len(ops) > 0 {
			n := min(len(ops), codecLocBatch)
			if _, err := post(ops[:n]); err != nil {
				run.fail("batch", -1, "location batch: %v", err)
			}
			ops = ops[n:]
		}
	}
	if concurrent {
		var wg sync.WaitGroup
		for _, stream := range partitionByUser(w.Locs, w.Cfg.Users) {
			wg.Add(1)
			go func(stream []CodecOp) {
				defer wg.Done()
				ingestStream(stream)
			}(stream)
		}
		wg.Wait()
	} else {
		ingestStream(w.Locs)
	}

	// Phase 2: calls and their interleaved movement, in schedule order.
	for ops := w.Ops; len(ops) > 0; {
		n := min(len(ops), codecOpBatch)
		frames, err := post(ops[:n])
		if err != nil {
			run.fail("batch", len(run.decisions), "op batch: %v", err)
		}
		for _, f := range frames {
			run.decisions = append(run.decisions, frameFingerprint(len(run.decisions), f))
		}
		ops = ops[n:]
	}
	run.finish(srv, &buf)
	return run
}

// forEachUserStream applies ops either in schedule order (sequential)
// or as one goroutine per user stream (concurrent), preserving per-user
// order either way.
func forEachUserStream(ops []CodecOp, users int, concurrent bool, f func(CodecOp)) {
	if !concurrent {
		for _, op := range ops {
			f(op)
		}
		return
	}
	var wg sync.WaitGroup
	for _, stream := range partitionByUser(ops, users) {
		wg.Add(1)
		go func(stream []CodecOp) {
			defer wg.Done()
			for _, op := range stream {
				f(op)
			}
		}(stream)
	}
	wg.Wait()
}

// partitionByUser splits ops into per-user streams, preserving order.
func partitionByUser(ops []CodecOp, users int) [][]CodecOp {
	streams := make([][]CodecOp, users)
	for _, op := range ops {
		streams[op.User] = append(streams[op.User], op)
	}
	var out [][]CodecOp
	for _, s := range streams {
		if len(s) > 0 {
			out = append(out, s)
		}
	}
	return out
}

// diffCodecRuns compares the binary leg's observable behavior against
// the text leg's, byte for byte.
func diffCodecRuns(text, bin *codecRun) []Divergence {
	divs := append(append([]Divergence{}, text.divs...), bin.divs...)
	divs = append(divs, diffStrings("decision", text.decisions, bin.decisions)...)
	divs = append(divs, diffStrings("request", text.requests, bin.requests)...)
	divs = append(divs, diffStrings("response", text.responses, bin.responses)...)
	divs = append(divs, diffStrings("audit-trace-id", text.traceIDs, bin.traceIDs)...)
	if text.audit != bin.audit {
		divs = append(divs, Divergence{Index: "binary", Kind: "audit", Query: -1,
			Detail: fmt.Sprintf("audit logs differ (%d vs %d bytes): %s",
				len(text.audit), len(bin.audit), firstDiffLine(text.audit, bin.audit))})
	}
	if len(text.achievedK) != len(bin.achievedK) {
		divs = append(divs, Divergence{Index: "binary", Kind: "achieved-k", Query: -1,
			Detail: fmt.Sprintf("bucket count %d vs %d", len(bin.achievedK), len(text.achievedK))})
	} else {
		for i := range text.achievedK {
			if text.achievedK[i] != bin.achievedK[i] {
				divs = append(divs, Divergence{Index: "binary", Kind: "achieved-k", Query: i,
					Detail: fmt.Sprintf("bucket %d: %d vs text %d", i, bin.achievedK[i], text.achievedK[i])})
			}
		}
	}
	if text.counters != bin.counters {
		divs = append(divs, Divergence{Index: "binary", Kind: "counters", Query: -1,
			Detail: fmt.Sprintf("binary %q vs text %q", bin.counters, text.counters)})
	}
	return divs
}

// diffStrings compares two ordered observation sequences.
func diffStrings(kind string, want, got []string) []Divergence {
	var divs []Divergence
	if len(want) != len(got) {
		divs = append(divs, Divergence{Index: "binary", Kind: kind, Query: -1,
			Detail: fmt.Sprintf("%d observations vs text %d", len(got), len(want))})
	}
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			divs = append(divs, Divergence{Index: "binary", Kind: kind, Query: i,
				Detail: fmt.Sprintf("binary %q vs text %q", got[i], want[i])})
		}
	}
	return divs
}

// firstDiffLine locates the first differing JSONL line for diagnostics.
func firstDiffLine(a, b string) string {
	al, bl := splitLines(a), splitLines(b)
	for i := 0; i < len(al) || i < len(bl); i++ {
		av, bv := "<missing>", "<missing>"
		if i < len(al) {
			av = al[i]
		}
		if i < len(bl) {
			bv = bl[i]
		}
		if av != bv {
			return fmt.Sprintf("line %d: text %s binary %s", i, av, bv)
		}
	}
	return "identical lines, length mismatch"
}

func splitLines(s string) []string {
	var out []string
	for len(s) > 0 {
		i := bytes.IndexByte([]byte(s), '\n')
		if i < 0 {
			out = append(out, s)
			break
		}
		out = append(out, s[:i])
		s = s[i+1:]
	}
	return out
}

// RunCodecDifferential runs one workload through both legs
// sequentially and returns every observable divergence. Empty slice
// means ingest through /v1/batch is indistinguishable from direct
// dispatch.
func RunCodecDifferential(w *CodecWorkload) []Divergence {
	return diffCodecRuns(runTextLeg(w, false), runBinaryLeg(w, false))
}

// RunCodecConcurrent replays the workload with the crowd-formation
// prefix ingested by one goroutine per user — concurrent /v1/batch
// posts on the binary leg — then the call phase sequentially. Per-user
// order is preserved, and tie-free trajectories make the final state
// independent of cross-user interleaving, so the two legs must still
// agree byte for byte. Run under -race: the concurrent handler calls
// are part of what is being tested.
func RunCodecConcurrent(w *CodecWorkload) []Divergence {
	return diffCodecRuns(runTextLeg(w, true), runBinaryLeg(w, true))
}
