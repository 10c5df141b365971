package ts

import (
	"slices"
	"sync"
	"testing"
)

func TestCounters(t *testing.T) {
	var c Counters
	if got := c.Names(); len(got) != 0 || c.String() != "" {
		t.Fatalf("fresh counters: Names=%v String=%q", got, c.String())
	}
	c.inc(evRequests)
	c.inc(evRequests)
	c.inc(evAtRisk)
	c.inc(evResponsesUnroutable)
	if c.Get("requests") != 2 || c.Get("at_risk") != 1 || c.Get("forwarded") != 0 || c.Get("nope") != 0 {
		t.Fatalf("Get wrong: %s", &c)
	}
	// Only non-zero counters are named, in name order.
	want := []string{"at_risk", "requests", "responses_unroutable"}
	if got := c.Names(); !slices.Equal(got, want) {
		t.Fatalf("Names=%v, want %v", got, want)
	}
	if got := c.String(); got != "at_risk=1 requests=2 responses_unroutable=1" {
		t.Fatalf("String=%q", got)
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.inc(evForwarded)
			}
		}()
	}
	wg.Wait()
	if got := c.Get("forwarded"); got != 8000 {
		t.Fatalf("forwarded=%d", got)
	}
}
