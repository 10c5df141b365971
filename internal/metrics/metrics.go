// Package metrics provides the dependency-free statistics toolkit the
// experiment harness and the trusted server use to report
// quality-of-service and privacy numbers:
//
//   - Summary — exact order statistics (mean, quantiles, extrema) over
//     an in-memory sample set, for offline experiments and reports.
//     It keeps every sample, so the server uses Histogram instead.
//   - CounterVec — labeled counter families in the Prometheus data
//     model (countervec.go).
//   - Histogram — fixed-bucket, wait-free histograms with merge and
//     quantile estimation, for latency and distribution metrics on the
//     request hot path (histogram.go).
//   - Registry / WritePrometheus — text exposition of counter and
//     gauge functions, CounterVecs and Histograms in the Prometheus
//     0.0.4 format, served by internal/httpapi at GET /metrics
//     (prometheus.go).
//
// Everything is safe for concurrent use. OBSERVABILITY.md at the
// repository root documents the concrete metric families the trusted
// server registers.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Summary accumulates float64 samples and answers order statistics.
// It is safe for concurrent use. The first order-statistic query after
// an Add sorts the samples in place.
type Summary struct {
	mu      sync.Mutex
	samples []float64
	sorted  bool // samples are in ascending order
	sum     float64
}

// Add records one sample.
func (s *Summary) Add(v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples = append(s.samples, v)
	s.sorted = false
	s.sum += v
}

// N returns the number of samples.
func (s *Summary) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Mean returns the sample mean, or NaN with no samples.
func (s *Summary) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return math.NaN()
	}
	return s.sum / float64(len(s.samples))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest-rank over the
// sorted samples, or NaN with no samples.
func (s *Summary) Quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.samples)
	if n == 0 {
		return math.NaN()
	}
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return s.samples[idx]
}

// Min returns the smallest sample, or NaN with no samples.
func (s *Summary) Min() float64 { return s.Quantile(0) }

// Max returns the largest sample, or NaN with no samples.
func (s *Summary) Max() float64 { return s.Quantile(1) }

// String renders "n=… mean=… p50=… p95=…".
func (s *Summary) String() string {
	if s.N() == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p95=%.2f max=%.2f",
		s.N(), s.Mean(), s.Quantile(0.5), s.Quantile(0.95), s.Max())
}

// Ratio returns a/b as a float, or NaN when b is zero — handy for rates
// such as disruptions per request.
func Ratio(a, b int64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return float64(a) / float64(b)
}
