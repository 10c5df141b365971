// Tests for the admission-control, body-bound and health-reporting
// surface added by the resilience layer: overload sheds with 503,
// oversized bodies get 413, and every degraded condition is visible on
// /healthz and /metrics.

package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"histanon/internal/obs"
	"histanon/internal/resilience"
	"histanon/internal/ts"
	"histanon/internal/wire"
)

func TestMaxBodyBytes413(t *testing.T) {
	provider := newTestProvider()
	srv := ts.New(ts.Config{DefaultPolicy: ts.Policy{K: 3}}, provider)
	h := New(srv)
	h.SetMaxBodyBytes(64)
	hts := httptest.NewServer(h)
	defer hts.Close()

	big := `{"user":1,"x":1,"y":1,"t":1000,"service":"` + strings.Repeat("a", 200) + `"}`
	resp, err := http.Post(hts.URL+"/v1/request", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("413 body not an error response: %v %+v", err, e)
	}

	// A small request on the same handler still works.
	ok, err := http.Post(hts.URL+"/v1/request", "application/json",
		strings.NewReader(`{"user":1,"x":1,"y":1,"t":1000,"service":"s"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("small request status = %d", ok.StatusCode)
	}
}

// newTestProvider is a minimal infallible outbox for handler tests.
func newTestProvider() ts.OutboxFunc {
	return func(*wire.Request) {}
}

func TestAdmissionControlSheds503(t *testing.T) {
	release := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(1)
	var once sync.Once
	blocking := ts.OutboxFunc(func(*wire.Request) {
		once.Do(entered.Done)
		<-release
	})
	srv := ts.New(ts.Config{DefaultPolicy: ts.Policy{K: 3}}, blocking)
	h := New(srv)
	h.SetMaxInFlight(1)
	hts := httptest.NewServer(h)
	defer hts.Close()
	defer close(release)

	// Occupy the single slot with a request stuck in the outbox.
	go http.Post(hts.URL+"/v1/request", "application/json",
		strings.NewReader(`{"user":1,"x":1,"y":1,"t":1000,"service":"s"}`))
	entered.Wait()

	resp, err := http.Post(hts.URL+"/v1/request", "application/json",
		strings.NewReader(`{"user":2,"x":1,"y":1,"t":1000,"service":"s"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q", resp.Header.Get("Retry-After"))
	}

	// The exempt endpoints still answer while saturated, and /healthz
	// reports the saturation.
	hz, err := http.Get(hts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d while saturated", hz.StatusCode)
	}
	var health HealthResponse
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" {
		t.Fatalf("healthz status = %q, want degraded: %+v", health.Status, health)
	}
	found := false
	for _, d := range health.Degraded {
		if d == "admission_saturated" {
			found = true
		}
	}
	if !found {
		t.Fatalf("degraded reasons %v lack admission_saturated", health.Degraded)
	}
	if health.ShedTotal < 1 {
		t.Fatalf("ShedTotal = %d", health.ShedTotal)
	}

	// The shed is visible on the metrics exposition too.
	mr, err := http.Get(hts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	body, _ := io.ReadAll(mr.Body)
	if !strings.Contains(string(body), obs.MetricHTTPShed+" 1") {
		t.Fatalf("exposition lacks the shed counter:\n%s", body)
	}
}

// failingDelivery always errors, for breaker-driven healthz states.
type failingDelivery struct{}

func (failingDelivery) Deliver(*wire.Request) error { return errors.New("down") }

func TestHealthzReportsOutbox(t *testing.T) {
	outbox := resilience.NewOutbox(failingDelivery{}, resilience.Options{
		QueueSize: 2, Workers: 1, MaxAttempts: 1,
		Breaker: resilience.BreakerConfig{FailureThreshold: 1, OpenFor: time.Hour},
	})
	defer outbox.Close()
	srv := ts.New(ts.Config{DefaultPolicy: ts.Policy{K: 3}}, outbox)
	h := New(srv)
	h.SetOutbox(outbox)
	hts := httptest.NewServer(h)
	defer hts.Close()

	// Trip the breaker with one doomed request.
	post := func() *http.Response {
		resp, err := http.Post(hts.URL+"/v1/request", "application/json",
			strings.NewReader(`{"user":1,"x":1,"y":1,"t":1000,"service":"nav"}`))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	post().Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for outbox.OpenBreakers() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if outbox.OpenBreakers() == 0 {
		t.Fatal("breaker never opened")
	}

	hz, err := http.Get(hts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	var health HealthResponse
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" {
		t.Fatalf("status = %q: %+v", health.Status, health)
	}
	if !slices.Contains(health.Degraded, "breaker_open:nav") {
		t.Fatalf("degraded reasons %v lack breaker_open:nav", health.Degraded)
	}
	if health.Outbox == nil || health.Outbox.Breakers["nav"] != "open" {
		t.Fatalf("outbox health: %+v", health.Outbox)
	}

	// A degraded request decision is visible on the wire.
	resp := post()
	defer resp.Body.Close()
	var dec DecisionResponse
	if err := json.NewDecoder(resp.Body).Decode(&dec); err != nil {
		t.Fatal(err)
	}
	if !dec.Degraded || !dec.Suppressed || dec.DegradedReason == "" {
		t.Fatalf("wire decision not degraded: %+v", dec)
	}
}

// TestFullExpositionWithResilienceWired proves every documented metric
// family appears on /metrics when the resilience stack is attached —
// the deployment-shaped counterpart of the bare-server exposition test
// in internal/ts.
func TestFullExpositionWithResilienceWired(t *testing.T) {
	outbox := resilience.NewOutbox(
		resilience.DeliveryFunc(func(*wire.Request) error { return nil }),
		resilience.Options{QueueSize: 4, Workers: 1})
	defer outbox.Close()
	srv := ts.New(ts.Config{DefaultPolicy: ts.Policy{K: 3}}, outbox)
	h := New(srv)
	h.SetMaxInFlight(4)
	h.SetOutbox(outbox)
	hts := httptest.NewServer(h)
	defer hts.Close()

	resp, err := http.Get(hts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range obs.MetricNames() {
		if !strings.Contains(out, "# TYPE "+name+" ") {
			t.Fatalf("exposition lacks family %s:\n%s", name, out)
		}
	}
}
