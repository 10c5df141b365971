package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"net/http"
	"runtime"
	"time"

	"histanon/internal/httpapi"
	"histanon/internal/mobility"
	"histanon/internal/resilience"
	"histanon/internal/wire"
)

// Gateway batching of location updates.
const (
	batchFrames = 512
	batchSpanS  = 60
)

// maxViolations caps the failed checks a phase keeps for the report.
const maxViolations = 20

// phaseStats is what the client saw in one phase.
type phaseStats struct {
	events, calls         int
	locBatches, locFrames int
	bytes                 int64
	// failed counts frames in non-200 POSTs plus degraded decisions.
	failed                                  int
	degraded, forwarded, generalized, hkGen int
	lat                                     []int64 // call latency, ns
	areas                                   []float64
	// Client time split for the ledger; encodeNs and checkNs are only
	// measured in traced runs.
	wallNs, encodeNs, checkNs, locHTTPNs, callHTTPNs int64
	queueDepthMax                                    int
	// queueFullWaits counts the calls that found the outbox queue full
	// and waited for room (see serviceCall).
	queueFullWaits int
	violations     []string
}

func (s *phaseStats) violate(format string, args ...any) {
	if len(s.violations) < maxViolations {
		s.violations = append(s.violations, fmt.Sprintf(format, args...))
	}
}

// recorder is a reusable in-process http.ResponseWriter.
type recorder struct {
	hdr    http.Header
	status int
	body   []byte
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	r.body = append(r.body, p...)
	return len(p), nil
}

func (r *recorder) reset() {
	r.status = 0
	r.body = r.body[:0]
}

// client is the closed-loop device gateway: it sends location batches
// and interactive service calls for every user, one request at a time.
type client struct {
	h      http.Handler
	outbox *resilience.Outbox
	traced bool

	req  *http.Request
	body *bytes.Reader
	rw   recorder

	frames, batch, call, scratch []byte
	count                        int
	batchT0                      int64
	// pending[u] == epoch marks user u as having an update in the
	// current batch; flushing bumps epoch.
	pending []uint32
	epoch   uint32

	digest hash.Hash64
	st     phaseStats
}

func newClient(st *stack, agents int, traced bool) *client {
	body := bytes.NewReader(nil)
	req, err := http.NewRequest(http.MethodPost, "/v1/batch", io.NopCloser(body))
	if err != nil {
		panic(err) // constant method and path
	}
	req.Header.Set("Content-Type", httpapi.WireContentType)
	req.Header.Set("Accept", httpapi.WireContentType)
	return &client{
		h: st.handler, outbox: st.outbox, traced: traced,
		req: req, body: body,
		rw:      recorder{hdr: http.Header{}},
		pending: make([]uint32, agents),
		epoch:   1,
		digest:  fnv.New64a(),
	}
}

// reserve sizes the per-call buffers for a phase of evs up front, so the
// client allocates nothing the heap metrics would count.
func (c *client) reserve(evs []mobility.Event) {
	calls := 0
	for i := range evs {
		if evs[i].Request {
			calls++
		}
	}
	c.st.lat = make([]int64, 0, calls)
	c.st.areas = make([]float64, 0, calls)
}

// run drives one phase's events in order and returns what it saw.
func (c *client) run(evs []mobility.Event) phaseStats {
	c.st = phaseStats{lat: c.st.lat[:0], areas: c.st.areas[:0]}
	t0 := time.Now()
	for i := range evs {
		ev := &evs[i]
		if ev.Request {
			if c.pending[ev.User] == c.epoch {
				c.flush()
			}
			c.serviceCall(ev)
			continue
		}
		if c.count == batchFrames || (c.count > 0 && ev.Point.T-c.batchT0 > batchSpanS) {
			c.flush()
		}
		if c.count == 0 {
			c.batchT0 = ev.Point.T
		}
		var te time.Time
		if c.traced {
			te = time.Now()
		}
		c.frames = wire.AppendLocation(c.frames, wire.LocationUpdate{
			User: int64(ev.User), X: ev.Point.P.X, Y: ev.Point.P.Y, T: ev.Point.T,
		})
		if c.traced {
			c.st.encodeNs += int64(time.Since(te))
		}
		c.pending[ev.User] = c.epoch
		c.count++
	}
	c.flush()
	c.st.wallNs = int64(time.Since(t0))
	return c.st
}

// post sends body through the handler and returns the elapsed ns.
func (c *client) post(body []byte) int64 {
	c.body.Reset(body)
	c.rw.reset()
	t0 := time.Now()
	c.h.ServeHTTP(&c.rw, c.req)
	return int64(time.Since(t0))
}

// flush posts the pending location updates as one gateway batch.
func (c *client) flush() {
	if c.count == 0 {
		return
	}
	var te time.Time
	if c.traced {
		te = time.Now()
	}
	batch, err := wire.AppendBatch(c.batch[:0], c.count, c.frames)
	if err != nil {
		panic(err) // count is at most batchFrames
	}
	c.batch = batch
	if c.traced {
		c.st.encodeNs += int64(time.Since(te))
	}
	c.st.locHTTPNs += c.post(batch)
	if c.rw.status != http.StatusOK {
		c.st.failed += c.count
		c.st.violate("location batch: status %d: %s", c.rw.status, c.rw.body)
	}
	c.st.events += c.count
	c.st.locBatches++
	c.st.locFrames += c.count
	c.st.bytes += int64(len(batch))
	c.frames = c.frames[:0]
	c.count = 0
	c.epoch++
}

// serviceCall posts one interactive call and checks its decision.
//
// Behind a socket, a handler goroutine blocks between requests and the
// outbox workers run then. This client never blocks, so the scheduler can
// leave the workers idle until the queue is full of deliveries that cost
// nothing (the sink discards), and the next call would be shed as
// queue_full by a scheduling artefact of the in-process loop. The client
// yields until the queue has room instead; it is the only sender, so the
// call is then admitted.
func (c *client) serviceCall(ev *mobility.Event) {
	if c.outbox.QueueDepth() >= c.outbox.QueueCapacity() {
		c.st.queueFullWaits++
		for c.outbox.QueueDepth() >= c.outbox.QueueCapacity() {
			runtime.Gosched()
		}
	}
	var te time.Time
	if c.traced {
		te = time.Now()
	}
	frame, err := wire.AppendServiceCall(c.scratch[:0], wire.ServiceCall{
		User: int64(ev.User), X: ev.Point.P.X, Y: ev.Point.P.Y, T: ev.Point.T, Service: ev.Service,
	})
	if err != nil {
		panic(err) // scenario services are non-empty
	}
	c.scratch = frame
	batch, err := wire.AppendBatch(c.call[:0], 1, frame)
	if err != nil {
		panic(err)
	}
	c.call = batch
	if c.traced {
		c.st.encodeNs += int64(time.Since(te))
	}
	d := c.post(batch)
	c.st.lat = append(c.st.lat, d)
	c.st.callHTTPNs += d
	c.st.events++
	c.st.calls++
	c.st.bytes += int64(len(batch))
	if c.traced {
		te = time.Now()
	}
	c.checkDecision(ev)
	if depth := c.outbox.QueueDepth(); depth > c.st.queueDepthMax {
		c.st.queueDepthMax = depth
	}
	if c.traced {
		c.st.checkNs += int64(time.Since(te))
	}
}

// checkDecision parses the call's response, folds it into the digest and
// checks the forwarded context against the exact point and tolerance.
func (c *client) checkDecision(ev *mobility.Event) {
	if c.rw.status != http.StatusOK {
		c.st.failed++
		c.st.violate("call of user %d at t=%d: status %d: %s", ev.User, ev.Point.T, c.rw.status, c.rw.body)
		return
	}
	dec, err := wire.NewBatchDecoder(c.rw.body)
	if err != nil || dec.Count() != 1 || !dec.Next() || dec.Type() != wire.FrameDecision {
		c.st.violate("call of user %d at t=%d: response is not one decision frame (%v)", ev.User, ev.Point.T, err)
		return
	}
	f, err := wire.ParseDecisionPayload(dec.Flags(), dec.Payload())
	if err != nil || dec.Next() || dec.Err() != nil {
		c.st.violate("call of user %d at t=%d: malformed decision frame (%v)", ev.User, ev.Point.T, err)
		return
	}
	// The trace id is minted at random by tracing, so it is not part of
	// the decision digest.
	f.TraceID = ""
	c.scratch = wire.AppendDecision(c.scratch[:0], f)
	_, _ = c.digest.Write(c.scratch) // hash.Hash writes never fail

	if f.Degraded {
		c.st.degraded++
		c.st.failed++
	}
	if f.Generalized {
		c.st.generalized++
		if f.HKAnonymity {
			c.st.hkGen++
		}
	}
	if !f.Forwarded {
		return
	}
	c.st.forwarded++
	if !f.HasContext || !f.Context.Contains(ev.Point) {
		c.st.violate("call of user %d at t=%d: forwarded context %v misses the exact point", ev.User, ev.Point.T, f.Context)
	}
	if f.HKAnonymity && !serviceTolerance.Allows(f.Context) {
		c.st.violate("call of user %d at t=%d: context %v with HKAnonymity exceeds the service tolerance", ev.User, ev.Point.T, f.Context)
	}
	if f.Generalized {
		c.st.areas = append(c.st.areas, f.Context.Area.Area())
	}
}

// combineDigests chains the digests of consecutive phases.
func combineDigests(ds ...uint64) uint64 {
	h := fnv.New64a()
	for _, d := range ds {
		_, _ = h.Write(binary.BigEndian.AppendUint64(nil, d))
	}
	return h.Sum64()
}
