package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// minReps is the fewest repetitions a run makes, whatever --seconds says.
const minReps = 3

// runRecord is the provenance line printed before the result.
type runRecord struct {
	Workload   string           `json:"workload"`
	Scenario   string           `json:"scenario"`
	Seed       int64            `json:"seed"`
	Traced     bool             `json:"traced"`
	Agents     int              `json:"agents"`
	CPU        string           `json:"cpu"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	GoVersion  string           `json:"go_version"`
	Commit     string           `json:"commit"`
	Reps       []map[string]any `json:"reps"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: rush-1c or rural-tiered")
	seed := flag.Int64("seed", 1, "traffic seed")
	agents := flag.Int("agents", 0, "population; 0 keeps the workload's own")
	seconds := flag.Float64("seconds", 12, "measuring time; repetitions continue until it has passed")
	trace := flag.Int("trace", 0, "1: per-layer run (alternating untraced and traced repetitions)")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "stores"), "scratch directory for tiered stores")
	flag.Parse()
	if err := run(*name, *agents, *seed, *seconds, *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
}

func run(name string, agents int, seed int64, seconds float64, traced bool, workdir string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if agents > 0 {
		w.agents = agents
	}
	defer os.RemoveAll(workdir)

	start := time.Now()
	var untracedReps, tracedReps []*repResult
	var violations []string
	var tr *traffic
	for i := 0; ; i++ {
		done := len(untracedReps)+len(tracedReps) >= minReps && (!traced || len(tracedReps) >= 2)
		if done && time.Since(start).Seconds() >= seconds {
			break
		}
		// Each repetition runs its own city: a run's medians then average
		// over layouts, not just over one layout's timing noise. A traced
		// repetition reuses its untraced partner's city.
		repTraced := traced && i%2 == 1
		if !repTraced {
			tr = nil // let the previous city be collected first
			var err error
			if tr, err = synthesize(w, repSeed(seed, len(untracedReps))); err != nil {
				return err
			}
		}
		r, err := runRep(w, tr, repTraced, workdir)
		if err != nil {
			return err
		}
		violations = append(violations, r.violations...)
		if repTraced {
			tracedReps = append(tracedReps, r)
		} else {
			untracedReps = append(untracedReps, r)
		}
	}
	all := append(append([]*repResult(nil), untracedReps...), tracedReps...)
	violations = append(violations, checkDigests(all)...)
	if traced {
		violations = append(violations, checkLedger(tracedReps)...)
	}

	res := result{Correct: len(violations) == 0}
	for _, r := range all {
		res.Attempted += r.measured.events
		res.Failed += r.measured.failed
	}
	if traced {
		res.Metrics = perLayer(untracedReps, tracedReps)
	} else {
		res.Metrics = endToEnd(untracedReps)
	}

	rec := newRecord(w, seed, traced)
	for _, r := range all {
		rec.Reps = append(rec.Reps, map[string]any{
			"traffic_seed":     r.seed,
			"day1_events":      r.measured.events,
			"day1_calls":       r.measured.calls,
			"traced":           r.traced,
			"setup_s":          r.setupS,
			"events_per_s":     r.eventsPerS(),
			"call_p50_us":      percentile(r.measured.lat, 0.50) / 1e3,
			"call_p99_us":      percentile(r.measured.lat, 0.99) / 1e3,
			"heap_growth_mb":   r.heapMB,
			"failed":           r.measured.failed,
			"shed_queue_full":  r.shedsTotal,
			"queue_full_waits": r.measured.queueFullWaits,
			"recovery_s":       r.recoveryS,
			"digest":           fmt.Sprintf("%016x", r.digest),
		})
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"record": rec}); err != nil {
		return err
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "check failed:", v)
	}
	if err := out.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%d output checks failed", len(violations))
	}
	return nil
}

// checkDigests requires the repetitions that ran the same city and shed
// nothing to make the same decisions, traced and untraced alike: tracing
// must not change a decision. Only a traced run repeats a city (each
// traced repetition reuses its untraced partner's); with --trace 0 every
// repetition runs its own city and this check compares nothing.
func checkDigests(reps []*repResult) []string {
	first := map[int64]*repResult{}
	var out []string
	for _, r := range reps {
		if r.shedsTotal != 0 {
			continue
		}
		want, ok := first[r.seed]
		if !ok {
			first[r.seed] = r
		} else if r.digest != want.digest {
			out = append(out, fmt.Sprintf("city %d: decision digest %016x (traced=%v) differs from %016x (traced=%v)",
				r.seed, r.digest, r.traced, want.digest, want.traced))
		}
	}
	return out
}

// repSeed derives the traffic seed of a run's n-th city; runs with
// different seeds below 2^40 never share a city.
func repSeed(seed int64, n int) int64 { return seed<<20 + int64(n) }

func newRecord(w workload, seed int64, traced bool) *runRecord {
	return &runRecord{
		Workload: w.name, Scenario: w.scenario, Seed: seed, Traced: traced,
		Agents: w.agents,
		CPU:    cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
	}
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
