package ts

import (
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
)

// event is one of the pipeline events the server counts. Each event
// has one slot in Counters and one series of the
// histanon_ts_events_total family, registered in this order.
type event int

const (
	evRequests event = iota
	evForwarded
	evGeneralized
	evHKFailures
	evUnlinkings
	evAtRisk
	evSuppressed
	evDegraded
	evExposures
	evOnDemandZones
	evUnlinkFailures
	evResponses
	evResponsesUnroutable
	numEvents
)

// eventNames are the counter names, indexed by event.
// OBSERVABILITY.md documents their meanings.
var eventNames = [numEvents]string{
	"requests", "forwarded", "generalized", "hk_failures", "unlinkings",
	"at_risk", "suppressed", "degraded", "exposures", "ondemand_zones",
	"unlink_failures", "responses", "responses_unroutable",
}

// Counters holds the server's event counters, one atomic slot per
// event: counting costs the request path one atomic add, with no lock
// and no map lookup.
type Counters struct {
	slots [numEvents]atomic.Int64
}

func (c *Counters) inc(e event) { c.slots[e].Add(1) }

func (c *Counters) load(e event) int64 { return c.slots[e].Load() }

// Get returns the named counter, or zero for a name that is not one of
// the server's events.
func (c *Counters) Get(name string) int64 {
	if e := slices.Index(eventNames[:], name); e >= 0 {
		return c.load(event(e))
	}
	return 0
}

// Names returns the names of the non-zero counters in sorted order.
func (c *Counters) Names() []string {
	var out []string
	for e, name := range eventNames {
		if c.load(event(e)) != 0 {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// String renders the non-zero counters as "a=1 b=2 …" in name order.
func (c *Counters) String() string {
	var b strings.Builder
	for i, name := range c.Names() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(strconv.FormatInt(c.Get(name), 10))
	}
	return b.String()
}
