package main

import (
	"sync/atomic"
	"time"

	"histanon/internal/geo"
	"histanon/internal/obs"
	"histanon/internal/phl"
	"histanon/internal/resilience"
	"histanon/internal/stindex"
	"histanon/internal/storage"
	"histanon/internal/wire"
)

// The traced run's timing wrappers. Each one times calls into a seam
// ts already exposes from outside the program; the server cannot tell a
// wrapped seam from the bare one (see bench_test.go).

// opTimer accumulates the calls and nanoseconds of one operation.
type opTimer struct{ n, ns atomic.Int64 }

func (o *opTimer) done(t0 time.Time) {
	o.ns.Add(int64(time.Since(t0)))
	o.n.Add(1)
}

// opCount is an opTimer reading.
type opCount struct{ n, ns int64 }

func (o *opTimer) read() opCount { return opCount{o.n.Load(), o.ns.Load()} }

func (a opCount) sub(b opCount) opCount { return opCount{a.n - b.n, a.ns - b.ns} }

// seamOps times the store and index calls the request path makes:
// writes (Record, Insert) on ingest, reads (History, KNearestUsers) in
// Algorithm 1 and mix-zone planning. The other methods of the seams are
// not called per request and pass through untimed.
type seamOps struct {
	record, insert, history, knn opTimer
}

type seamReading struct {
	record, insert, history, knn opCount
}

func (s *seamOps) read() seamReading {
	if s == nil {
		return seamReading{}
	}
	return seamReading{s.record.read(), s.insert.read(), s.history.read(), s.knn.read()}
}

func (a seamReading) sub(b seamReading) seamReading {
	return seamReading{a.record.sub(b.record), a.insert.sub(b.insert), a.history.sub(b.history), a.knn.sub(b.knn)}
}

func (a seamReading) readNs() int64  { return a.history.ns + a.knn.ns }
func (a seamReading) totalNs() int64 { return a.readNs() + a.record.ns + a.insert.ns }

// timedStore wraps the in-memory PHL store (ts.Config.Store).
type timedStore struct {
	phl.Storer
	ops *seamOps
}

func (s *timedStore) Record(u phl.UserID, p geo.STPoint) {
	t0 := time.Now()
	s.Storer.Record(u, p)
	s.ops.record.done(t0)
}

func (s *timedStore) History(u phl.UserID) *phl.History {
	t0 := time.Now()
	h := s.Storer.History(u)
	s.ops.history.done(t0)
	return h
}

// timedIndex wraps the grid spatio-temporal index (ts.Config.Index).
type timedIndex struct {
	stindex.Index
	ops *seamOps
}

func (x *timedIndex) Insert(u phl.UserID, p geo.STPoint) {
	t0 := time.Now()
	x.Index.Insert(u, p)
	x.ops.insert.done(t0)
}

func (x *timedIndex) KNearestUsers(q geo.STPoint, k int, m geo.STMetric, exclude map[phl.UserID]bool) []stindex.UserPoint {
	t0 := time.Now()
	ups := x.Index.KNearestUsers(q, k, m, exclude)
	x.ops.knn.done(t0)
	return ups
}

// timedTiered wraps the durable tiered store, which ts uses as both PHL
// store and index. Embedding the concrete store keeps every interface
// ts.New resolves by type assertion (stindex.Index, ts.FaultyStorage,
// ts.MetricsSource); dropping FaultyStorage would silently turn off
// fail-closed suppression.
type timedTiered struct {
	*storage.TieredStore
	ops *seamOps
}

func (t *timedTiered) Record(u phl.UserID, p geo.STPoint) {
	t0 := time.Now()
	t.TieredStore.Record(u, p)
	t.ops.record.done(t0)
}

func (t *timedTiered) Insert(u phl.UserID, p geo.STPoint) {
	t0 := time.Now()
	t.TieredStore.Insert(u, p)
	t.ops.insert.done(t0)
}

func (t *timedTiered) History(u phl.UserID) *phl.History {
	t0 := time.Now()
	h := t.TieredStore.History(u)
	t.ops.history.done(t0)
	return h
}

func (t *timedTiered) KNearestUsers(q geo.STPoint, k int, m geo.STMetric, exclude map[phl.UserID]bool) []stindex.UserPoint {
	t0 := time.Now()
	ups := t.TieredStore.KNearestUsers(q, k, m, exclude)
	t.ops.knn.done(t0)
	return ups
}

// timedOutbox wraps the resilience outbox handed to ts.New, timing
// admission. Embedding keeps ts.FallibleOutbox, ts.TracedOutbox and
// ts.MetricsSource; ts never calls the plain Deliver of a fallible
// outbox.
type timedOutbox struct {
	*resilience.Outbox
	admit opTimer
}

func (o *timedOutbox) TryDeliver(req *wire.Request) error {
	t0 := time.Now()
	err := o.Outbox.TryDeliver(req)
	o.admit.done(t0)
	return err
}

func (o *timedOutbox) TryDeliverTraced(req *wire.Request, tc obs.TraceContext) error {
	t0 := time.Now()
	err := o.Outbox.TryDeliverTraced(req, tc)
	o.admit.done(t0)
	return err
}

func (o *timedOutbox) read() opCount {
	if o == nil {
		return opCount{}
	}
	return o.admit.read()
}
