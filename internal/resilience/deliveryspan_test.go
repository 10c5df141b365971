package resilience

import (
	"sync"
	"testing"
	"time"

	"histanon/internal/obs"
	"histanon/internal/wire"
)

// spanSink collects the delivery spans the outbox records.
type spanSink struct {
	mu    sync.Mutex
	spans []obs.Span
	heads []bool
}

func (s *spanSink) RecordSpan(sp *obs.Span, head bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Delivery spans arrive with binary-only identity; the real recorder
	// (the tracer) renders the hex ids at keep time, so a test sink does
	// it here.
	sp.MaterializeIDs()
	s.spans = append(s.spans, *sp)
	s.heads = append(s.heads, head)
	return true
}

func (s *spanSink) all() []obs.Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.Span(nil), s.spans...)
}

func TestDeliverySpanSuccess(t *testing.T) {
	sink := &countingSink{}
	rec := &spanSink{}
	o := NewOutbox(sink, Options{QueueSize: 4, Workers: 1, Clock: &vclock{}})
	o.SetSpanSink(rec)

	tc := obs.MintTraceContext(true)
	if err := o.TryDeliverTraced(req(7), tc); err != nil {
		t.Fatal(err)
	}
	o.Close()

	spans := rec.all()
	if len(spans) != 1 {
		t.Fatalf("recorded %d delivery spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Kind != obs.SpanKindDelivery || sp.Outcome != obs.OutcomeDelivered {
		t.Fatalf("span kind=%q outcome=%q", sp.Kind, sp.Outcome)
	}
	if sp.TraceID != tc.TraceIDString() {
		t.Fatalf("span trace id %q, want %q", sp.TraceID, tc.TraceIDString())
	}
	if sp.ParentSpanID != tc.SpanIDString() {
		t.Fatalf("span parent %q, want the request span %q", sp.ParentSpanID, tc.SpanIDString())
	}
	if sp.SpanID == tc.SpanIDString() || sp.SpanID == "" {
		t.Fatalf("delivery span must have its own id, got %q", sp.SpanID)
	}
	if len(sp.AttemptNs) != 1 {
		t.Fatalf("attempts = %v, want one entry", sp.AttemptNs)
	}
	if sp.QueueNs < 0 || sp.TotalNs < sp.QueueNs {
		t.Fatalf("queue=%d total=%d", sp.QueueNs, sp.TotalNs)
	}
	if sp.MsgID != 7 || sp.Service != "svc" {
		t.Fatalf("span identity: %+v", sp)
	}
	if !rec.heads[0] {
		t.Fatal("a sampled parent must mark the delivery span head-retained")
	}
}

func TestDeliverySpanRetriesThenDrop(t *testing.T) {
	sink := &countingSink{failN: 1 << 30}
	rec := &spanSink{}
	clock := &vclock{}
	o := NewOutbox(sink, Options{
		QueueSize: 4, Workers: 1, MaxAttempts: 3, Clock: clock,
		Deadline: time.Hour,
		Breaker:  BreakerConfig{FailureThreshold: 100},
	})
	o.SetSpanSink(rec)

	tc := obs.MintTraceContext(false)
	if err := o.TryDeliverTraced(req(9), tc); err != nil {
		t.Fatal(err)
	}
	o.Close()

	spans := rec.all()
	if len(spans) != 1 {
		t.Fatalf("recorded %d delivery spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Outcome != obs.OutcomeDropped || sp.Reason != "retries_exhausted" {
		t.Fatalf("outcome=%q reason=%q", sp.Outcome, sp.Reason)
	}
	if len(sp.AttemptNs) != 3 {
		t.Fatalf("attempts = %v, want 3 entries", sp.AttemptNs)
	}
	retries := 0
	for _, e := range sp.Events {
		if e.Name == "retry" {
			retries++
			if e.AtNs < 0 {
				t.Fatalf("retry event offset %d", e.AtNs)
			}
		}
	}
	if retries != 2 {
		t.Fatalf("retry events = %d, want 2", retries)
	}
	if rec.heads[0] {
		t.Fatal("an unsampled parent must leave the keep decision to the tail")
	}
}

func TestDeliverySpanBreakerEvent(t *testing.T) {
	sink := &countingSink{failN: 1 << 30}
	// The first attempt waits at the gate until both requests are
	// admitted; otherwise the worker could trip the breaker first and
	// admission would refuse the second request outright.
	gate := make(chan struct{})
	gated := DeliveryFunc(func(r *wire.Request) error {
		<-gate
		return sink.Deliver(r)
	})
	rec := &spanSink{}
	o := NewOutbox(gated, Options{
		QueueSize: 16, Workers: 1, MaxAttempts: 1, Clock: &vclock{},
		Deadline: time.Hour,
		Breaker:  BreakerConfig{FailureThreshold: 1, OpenFor: time.Hour},
	})
	o.SetSpanSink(rec)

	// First request trips the breaker (one failed attempt at threshold
	// 1); the second is admitted before the failure lands but meets an
	// open breaker mid-flight. Enqueue both up front on one worker so
	// ordering is deterministic.
	if err := o.TryDeliverTraced(req(1), obs.MintTraceContext(true)); err != nil {
		t.Fatal(err)
	}
	if err := o.TryDeliverTraced(req(2), obs.MintTraceContext(true)); err != nil {
		t.Fatal(err)
	}
	close(gate)
	o.Close()

	spans := rec.all()
	if len(spans) != 2 {
		t.Fatalf("recorded %d delivery spans, want 2", len(spans))
	}
	second := spans[1]
	if second.Outcome != obs.OutcomeDropped || second.Reason != "breaker_open" {
		t.Fatalf("second span outcome=%q reason=%q", second.Outcome, second.Reason)
	}
	found := false
	for _, e := range second.Events {
		if e.Name == "breaker_open" {
			found = true
		}
	}
	if !found {
		t.Fatalf("second span lacks the breaker_open event: %+v", second.Events)
	}
	if len(second.AttemptNs) != 0 {
		t.Fatalf("breaker-blocked request made %d attempts", len(second.AttemptNs))
	}
}

func TestUntracedRequestsRecordNoSpans(t *testing.T) {
	sink := &countingSink{}
	rec := &spanSink{}
	o := NewOutbox(sink, Options{QueueSize: 4, Workers: 1, Clock: &vclock{}})
	o.SetSpanSink(rec)
	if err := o.TryDeliver(req(1)); err != nil {
		t.Fatal(err)
	}
	if err := o.TryDeliverTraced(req(2), obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	o.Close()
	if got := len(rec.all()); got != 0 {
		t.Fatalf("untraced requests recorded %d spans", got)
	}
}

func TestDroppedAuditCarriesTraceID(t *testing.T) {
	var mu sync.Mutex
	var audited []obs.Event
	sink := &countingSink{failN: 1 << 30}
	o := NewOutbox(sink, Options{
		QueueSize: 4, Workers: 1, MaxAttempts: 1, Clock: &vclock{},
		Deadline: time.Hour,
		Breaker:  BreakerConfig{FailureThreshold: 100},
		Audit: func(e obs.Event) {
			mu.Lock()
			audited = append(audited, e)
			mu.Unlock()
		},
	})
	tc := obs.MintTraceContext(true)
	if err := o.TryDeliverTraced(req(3), tc); err != nil {
		t.Fatal(err)
	}
	o.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(audited) != 1 {
		t.Fatalf("audited %d events", len(audited))
	}
	if audited[0].TraceID != tc.TraceIDString() {
		t.Fatalf("audit trace_id = %q, want %q", audited[0].TraceID, tc.TraceIDString())
	}
}
