// Package deploy implements the paper's second proposed use of the
// framework (§7, direction (b)): "to evaluate if the privacy policies
// that a location-based service guarantees are sufficient to deploy the
// service in a certain area. This may be achieved by considering, for
// example, the typical density of users, their movement patterns, their
// concerns about privacy, as well as the spatio-temporal tolerance
// constraints of the service and the presence of natural mix-zones in
// the area."
//
// Analyze samples representative request points from the area's
// movement data and asks, for each: could Algorithm 1 preserve
// historical k-anonymity within the service's tolerance here, and if
// not, is an unlinking opportunity (a natural mix zone nearby, or
// enough diverging trajectories for an on-demand one) available?
package deploy

import (
	"fmt"
	"math"

	"histanon/internal/generalize"
	"histanon/internal/geo"
	"histanon/internal/metrics"
	"histanon/internal/mixzone"
	"histanon/internal/phl"
	"histanon/internal/stindex"
)

// Input is the deployment question.
type Input struct {
	// Store holds representative movement data for the area.
	Store phl.Storer
	// Index must cover the same data (built by BuildIndex when nil).
	Index stindex.Index
	// Metric is the Algorithm-1 3D metric.
	Metric geo.STMetric
	// K is the anonymity value users will demand.
	K int
	// Tolerance is the service's coarsest useful resolution.
	Tolerance generalize.Tolerance
	// Zones are the area's natural mix zones (may be nil).
	Zones *mixzone.Registry
	// ZoneReach is how far (meters) users can be expected to detour to a
	// natural mix zone. Zero means 1000.
	ZoneReach float64
	// Divergence configures the on-demand mix-zone test.
	Divergence mixzone.Divergence
	// SampleEvery subsamples history points as request sites (every n-th
	// point per user). Zero means 50.
	SampleEvery int
	// FeasibleTarget is the feasibility fraction required for a
	// "deployable" verdict. Zero means 0.9.
	FeasibleTarget float64
}

// Verdict is the analyzer's conclusion.
type Verdict int

// The possible conclusions, from best to worst.
const (
	// Deployable: generalization alone preserves anonymity at the target
	// rate.
	Deployable Verdict = iota
	// DeployableWithUnlinking: failures occur but unlinking cover
	// (natural or on-demand zones) fills the gap to the target rate.
	DeployableWithUnlinking
	// NotDeployable: even counting unlinking cover the target rate is
	// missed — the service's constraints are too strict for the area's
	// density and movement patterns.
	NotDeployable
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Deployable:
		return "deployable"
	case DeployableWithUnlinking:
		return "deployable-with-unlinking"
	case NotDeployable:
		return "not-deployable"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Report is the analyzer's output.
type Report struct {
	// Samples is the number of request sites evaluated.
	Samples int
	// FeasibleRate is the fraction where Algorithm 1 fits the tolerance.
	FeasibleRate float64
	// CloakArea and CloakWindow summarize the anonymity-preserving boxes
	// (pre-clamping) over all samples.
	CloakArea   *metrics.Summary
	CloakWindow *metrics.Summary
	// NaturalZoneRate is the fraction of samples within ZoneReach of a
	// registered mix zone.
	NaturalZoneRate float64
	// OnDemandRate is the fraction of samples where k−1 diverging
	// trajectories would support an on-demand zone. It is a hindsight
	// figure: the search runs over finished histories, so candidates'
	// headings use samples from after each request. A live trusted
	// server ingests in time order and never holds those samples at
	// decision time, so every on-demand zone it forms is a
	// temporal-only fallback zone (see package mixzone).
	OnDemandRate float64
	// CoveredRate is the fraction of samples that are feasible OR have
	// some unlinking opportunity.
	CoveredRate float64
	// Verdict is the conclusion at the configured target.
	Verdict Verdict
}

// BuildIndex constructs the default grid index over a store.
func BuildIndex(store phl.Storer) stindex.Index {
	idx := stindex.NewGrid(500, 1800)
	for _, u := range store.Users() {
		for _, p := range store.History(u).Points() {
			idx.Insert(u, p)
		}
	}
	return idx
}

// Analyze runs the deployment-area evaluation.
func Analyze(in Input) (Report, error) {
	if in.Store == nil || in.Store.NumUsers() == 0 {
		return Report{}, fmt.Errorf("deploy: no movement data")
	}
	if in.K < 2 {
		return Report{}, fmt.Errorf("deploy: k must be at least 2, got %d", in.K)
	}
	if in.Index == nil {
		in.Index = BuildIndex(in.Store)
	}
	sampleEvery := in.SampleEvery
	if sampleEvery == 0 {
		sampleEvery = 50
	}
	zoneReach := in.ZoneReach
	if zoneReach == 0 {
		zoneReach = 1000
	}
	target := in.FeasibleTarget
	if target == 0 {
		target = 0.9
	}

	g := &generalize.Generalizer{Index: in.Index, Store: in.Store, Metric: in.Metric}
	rep := Report{CloakArea: &metrics.Summary{}, CloakWindow: &metrics.Summary{}}
	feasible, natural, onDemand, covered := 0, 0, 0, 0

	for _, u := range in.Store.Users() {
		pts := in.Store.History(u).Points()
		for i := 0; i < len(pts); i += sampleEvery {
			q := pts[i]
			rep.Samples++

			res, ok := g.FirstElement(q, u, in.K, in.Tolerance)
			siteFeasible := ok && res.HKAnonymity
			if ok {
				// Record the pre-clamp resolution cost by re-running
				// without constraints (cheap relative to the first call's
				// index work being warm).
				free, _ := g.FirstElement(q, u, in.K, generalize.Unlimited)
				rep.CloakArea.Add(free.Box.Area.Area())
				rep.CloakWindow.Add(float64(free.Box.Time.Duration()))
			}
			if siteFeasible {
				feasible++
			}

			hasNatural := false
			if in.Zones != nil {
				for _, z := range in.Zones.Zones() {
					if z.Area.DistToPoint(q.P) <= zoneReach {
						hasNatural = true
						break
					}
				}
			}
			if hasNatural {
				natural++
			}
			_, hasOnDemand := mixzone.FindDiverging(
				in.Index, in.Store, u, q.P, q.T, in.K-1, in.Divergence, in.Metric)
			if hasOnDemand {
				onDemand++
			}
			if siteFeasible || hasNatural || hasOnDemand {
				covered++
			}
		}
	}

	n := float64(rep.Samples)
	if n == 0 {
		return Report{}, fmt.Errorf("deploy: no samples (histories shorter than SampleEvery)")
	}
	rep.FeasibleRate = float64(feasible) / n
	rep.NaturalZoneRate = float64(natural) / n
	rep.OnDemandRate = float64(onDemand) / n
	rep.CoveredRate = float64(covered) / n

	switch {
	case rep.FeasibleRate >= target:
		rep.Verdict = Deployable
	case rep.CoveredRate >= target:
		rep.Verdict = DeployableWithUnlinking
	default:
		rep.Verdict = NotDeployable
	}
	return rep, nil
}

// Format renders a human-readable report.
func (r Report) Format() string {
	area := math.NaN()
	window := math.NaN()
	if r.CloakArea != nil {
		area = r.CloakArea.Mean() / 1e6
	}
	if r.CloakWindow != nil {
		window = r.CloakWindow.Mean()
	}
	return fmt.Sprintf(
		"samples: %d\nfeasible within tolerance: %.1f%%\n"+
			"expected cloak: %.2f km^2, %.0f s\n"+
			"natural mix-zone reach: %.1f%%\non-demand zone availability (hindsight): %.1f%%\n"+
			"covered (feasible or unlinkable): %.1f%%\nverdict: %s",
		r.Samples, 100*r.FeasibleRate, area, window,
		100*r.NaturalZoneRate, 100*r.OnDemandRate, 100*r.CoveredRate, r.Verdict)
}
