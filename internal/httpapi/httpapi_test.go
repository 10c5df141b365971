package httpapi

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"histanon/internal/geo"
	"histanon/internal/phl"
	"histanon/internal/sp"
	"histanon/internal/tgran"
	"histanon/internal/ts"
)

func newTestServer(t *testing.T) (*httptest.Server, *ts.Server, *sp.Provider) {
	t.Helper()
	provider := sp.NewProvider()
	srv := ts.New(ts.Config{DefaultPolicy: ts.Policy{K: 3}}, provider)
	hts := httptest.NewServer(New(srv))
	t.Cleanup(hts.Close)
	return hts, srv, provider
}

const commuteSpec = `
lbqid "commute" {
    element area [0,400]x[0,400] time [06:00,10:00]
    recurrence 1.Days
}`

func TestHealthz(t *testing.T) {
	hts, _, _ := newTestServer(t)
	resp, err := http.Get(hts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d", resp.StatusCode)
	}
}

func TestEndToEndFlow(t *testing.T) {
	hts, srv, provider := newTestServer(t)
	c := NewClient(hts.URL)

	if err := c.SetPolicyLevel(1, "medium"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddLBQID(1, commuteSpec); err != nil {
		t.Fatal(err)
	}
	// Crowd so that generalization can succeed (k=5 for medium).
	for u := int64(2); u <= 9; u++ {
		if err := c.RecordLocation(u, float64(u*20), float64(u*15), 7*tgran.Hour+u*30); err != nil {
			t.Fatal(err)
		}
	}

	dec, err := c.Request(ServiceRequest{
		User: 1, X: 100, Y: 100, T: 7*tgran.Hour + 600,
		Service: "navigation", Data: map[string]string{"dest": "office"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Forwarded || !dec.Generalized || dec.MatchedLBQID != "commute" {
		t.Fatalf("decision: %+v", dec)
	}
	if !dec.HKAnonymity {
		t.Fatalf("crowded area must preserve anonymity: %+v", dec)
	}
	if dec.Context == nil || dec.Context.MaxX <= dec.Context.MinX {
		t.Fatalf("context missing or degenerate: %+v", dec.Context)
	}
	if dec.Pseudonym == "" {
		t.Fatal("pseudonym missing")
	}

	// The SP got the same generalized request.
	reqs := provider.Requests()
	if len(reqs) != 1 || reqs[0].Service != "navigation" || reqs[0].Data["dest"] != "office" {
		t.Fatalf("provider log: %+v", reqs)
	}

	// Stats reflect the traffic.
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters["requests"] != 1 || stats.Counters["forwarded"] != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.TrackedUsers != srv.Store().NumUsers() {
		t.Fatalf("tracked users: %+v", stats)
	}
	if stats.GenSamples != 1 || stats.GenAreaMean <= 0 {
		t.Fatalf("generalization stats: %+v", stats)
	}
}

// TestStatsGeneralizationFigures holds /v1/stats to the decisions the
// server returned: genSamples counts exactly the forwarded generalized
// requests, and the two means are the exact means of their contexts.
func TestStatsGeneralizationFigures(t *testing.T) {
	hts, srv, _ := newTestServer(t)
	if err := srv.AddLBQIDSpec(1, commuteSpec); err != nil {
		t.Fatal(err)
	}
	var n, exact int
	var areaSum, windowSum float64
	var areas []float64
	for day := int64(0); day < 3; day++ {
		for u := int64(2); u <= 9; u++ {
			srv.RecordLocation(phl.UserID(u), geo.STPoint{
				P: geo.Point{X: float64(u * 20), Y: float64(u * 15)},
				T: day*tgran.Day + 7*tgran.Hour + u*30 + day*u,
			})
		}
		for i, user := range []phl.UserID{1, 1, 10} {
			p := geo.STPoint{
				P: geo.Point{X: 100 + float64(i*30), Y: 100},
				T: day*tgran.Day + 7*tgran.Hour + 600 + int64(i)*900,
			}
			dec := srv.Request(user, p, "navigation", nil)
			if dec.Forwarded && !dec.Generalized {
				exact++
			}
			if dec.Forwarded && dec.Generalized {
				n++
				a := dec.Request.Context.Area.Area()
				areaSum += a
				windowSum += float64(dec.Request.Context.Time.Duration())
				areas = append(areas, a)
			}
		}
	}
	if n < 2 || exact == 0 {
		t.Fatalf("workload must mix generalized and exact forwards, got %d and %d", n, exact)
	}

	stats, err := NewClient(hts.URL).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.GenSamples != n {
		t.Fatalf("genSamples = %d, forwarded generalized decisions = %d", stats.GenSamples, n)
	}
	if want := areaSum / float64(n); stats.GenAreaMean != want {
		t.Fatalf("genAreaMean = %v, exact mean = %v", stats.GenAreaMean, want)
	}
	if want := windowSum / float64(n); stats.GenWindow != want {
		t.Fatalf("genWindowMean = %v, exact mean = %v", stats.GenWindow, want)
	}
	// genAreaP95 is a bucket estimate: within one ×10 area bucket of
	// the exact nearest-rank p95.
	slices.Sort(areas)
	p95 := areas[int(math.Ceil(0.95*float64(n)))-1]
	if stats.GenAreaP95 < p95/10 || stats.GenAreaP95 > p95*10 {
		t.Fatalf("genAreaP95 = %v, exact p95 = %v", stats.GenAreaP95, p95)
	}
}

func TestBadRequests(t *testing.T) {
	hts, _, _ := newTestServer(t)
	cases := []struct {
		path, body string
	}{
		{"/v1/location", `{"user": "not-a-number"}`},
		{"/v1/location", `{"unknown": 1}`},
		{"/v1/request", `{"user":1}`},                // missing service
		{"/v1/lbqid", `{"user":1,"spec":"garbage"}`}, // unparsable spec
		{"/v1/policy", `{"user":1}`},                 // neither level nor k
		{"/v1/policy", `{"user":1,"level":"extreme"}`},
	}
	for _, c := range cases {
		resp, err := http.Post(hts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with %q: status=%d want 400", c.path, c.body, resp.StatusCode)
		}
	}
}

func TestMethodEnforcement(t *testing.T) {
	hts, _, _ := newTestServer(t)
	resp, err := http.Get(hts.URL + "/v1/request")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/request: status=%d", resp.StatusCode)
	}
	resp, err = http.Post(hts.URL+"/v1/stats", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats: status=%d", resp.StatusCode)
	}
}

func TestClientErrorSurfaced(t *testing.T) {
	hts, _, _ := newTestServer(t)
	c := NewClient(hts.URL)
	if err := c.AddLBQID(1, "garbage"); err == nil {
		t.Fatal("client must surface server-side validation errors")
	} else if !strings.Contains(err.Error(), "httpapi:") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if err := c.SetPolicyLevel(1, "extreme"); err == nil {
		t.Fatal("unknown level must fail")
	}
}

func TestExplicitPolicy(t *testing.T) {
	hts, _, _ := newTestServer(t)
	c := NewClient(hts.URL)
	if err := c.SetPolicy(1, 7, 0.4, true); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClients(t *testing.T) {
	hts, srv, _ := newTestServer(t)
	c := NewClient(hts.URL)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 50 && err == nil; i++ {
				err = c.RecordLocation(int64(g), float64(i), float64(i), int64(i)*60)
				if err == nil && i%10 == 0 {
					_, err = c.Request(ServiceRequest{
						User: int64(g), X: float64(i), Y: float64(i), T: int64(i)*60 + 1,
						Service: "weather",
					})
				}
			}
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if srv.Store().NumUsers() != 8 {
		t.Fatalf("users=%d", srv.Store().NumUsers())
	}
}

func TestMineEndpoint(t *testing.T) {
	hts, _, _ := newTestServer(t)
	c := NewClient(hts.URL)
	// Feed a recurring weekday pattern for user 7.
	for d := int64(0); d < 10; d++ {
		if d%7 >= 5 {
			continue
		}
		if err := c.RecordLocation(7, 100, 100, d*tgran.Day+8*tgran.Hour); err != nil {
			t.Fatal(err)
		}
		if err := c.RecordLocation(7, 3000, 100, d*tgran.Day+9*tgran.Hour); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(hts.URL+"/v1/mine", "application/json",
		strings.NewReader(`{"weekdaysOnly":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d", resp.StatusCode)
	}
	var cands []MinedCandidateJSON
	if err := json.NewDecoder(resp.Body).Decode(&cands); err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].User != 7 || cands[0].Elements < 2 {
		t.Fatalf("candidates: %+v", cands)
	}
	if !strings.Contains(cands[0].Spec, "lbqid") {
		t.Fatalf("spec not in block format: %q", cands[0].Spec)
	}
}

func TestDeployEndpoint(t *testing.T) {
	hts, _, _ := newTestServer(t)
	c := NewClient(hts.URL)
	for u := int64(0); u < 6; u++ {
		for i := int64(0); i < 5; i++ {
			if err := c.RecordLocation(u, float64(u*30), float64(i*20), i*600); err != nil {
				t.Fatal(err)
			}
		}
	}
	resp, err := http.Post(hts.URL+"/v1/deploy", "application/json",
		strings.NewReader(`{"k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d", resp.StatusCode)
	}
	var rep DeployReportJSON
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Samples == 0 || rep.Verdict == "" {
		t.Fatalf("report: %+v", rep)
	}
	// Invalid k surfaces as 400.
	resp, err = http.Post(hts.URL+"/v1/deploy", "application/json",
		strings.NewReader(`{"k":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("k=1 status=%d", resp.StatusCode)
	}
}
