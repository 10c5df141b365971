// Command pipebench is the repository's end-to-end benchmark: it drives
// mobility-registry scenarios through the trusted server's binary ingest
// route (POST /v1/batch) and reports what a user of the server sees, plus,
// in a separate traced run, a per-layer cost ledger.
//
// Usage, from the repository root (run.sh builds the command from source
// and keeps every build output under .bench_build/):
//
//	bash pipebench/run.sh --workload rush-1c --seed 1 --seconds 40 --trace 0
//
// --agents N overrides the workload's population, for sizing studies.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is the run
// record: host CPU model, nproc, GOMAXPROCS, Go version, commit (the build's
// VCS stamp, "unknown" outside a git work tree), seed, population, and per
// repetition its traffic seed, event and call counts, raw values and the
// digest of all its decision frames. A failed output check is printed to
// standard error and makes the command exit 1.
//
// # Traffic model
//
// A repetition materializes mobility.Scenario.Config(agents, seed) with
// Days = 2 and time-orders the events itself; that synthesis is the
// generator's cost and is excluded from every metric. Every commuter gets
// the paper's Example-1 commute LBQID over its own home and office (the
// shape of mobility.World.CommuterLBQID, recurring on both days). Day 0 is
// preloaded during set-up and day 1 is the measured phase; both run the
// same traffic:
//
//   - location updates travel as gateway batches of up to 512 frames,
//     flushed early when the batch would span more than 60 s of simulated
//     time, or when a service call is due from a user with an update in
//     the batch, so every user's events stay in time order;
//   - each service call is its own single-frame POST with a binary Accept
//     header, timed from send to response.
//
// The server is assembled as cmd/lbserve assembles it with default flags:
// k=5, on-demand mix zones, the SLO engine on with its default objective
// and windows, the resilience outbox (queue 1024, 4 workers) in front of an
// SP sink that discards, admission limit 256 and the wire-batch body bound.
// Tracing is off. lbserve configures no services, so every scenario service
// gets the E-comp tolerance of 2 km × 2 km × 30 min; unlimited tolerance
// would leave the tolerance and unlink paths unreachable.
//
// # Boundary, load and seeds
//
// The load is a closed loop in-process: one client calls
// httpapi.Handler.ServeHTTP directly and sends its next request only after
// the previous one returned. No socket is involved, so kernel and network
// cost are not measured. Nor does the client ever block on one, so before
// a service call it yields to the outbox workers while their queue is
// full (see Known behaviour), so no call is shed for want of scheduling.
//
// A run repeats set-up plus measured day until --seconds have passed, at
// least three times, and reports medians. Every repetition runs its own
// city, with traffic seed seed<<20 + n for the run's n-th city, so a run
// averages over city layouts as well as over timing noise; the same --seed
// always yields the same cities, so the per-repetition digests in the run
// record repeat across runs with the same seed (except in a repetition
// that shed a call, see below). Development used seed 1; seed 2 was held
// out and checked for the same steadiness.
//
// # Workloads
//
// rush-1c: the rush-hour scenario at 20000 agents, in-memory PHL and grid
// index, one client. The paper's commute day at city scale with no
// contention. Grid KNN, LBQID matching, Algorithm 1 and ingest gains show
// here in events_per_s and call_p50_us; the storage layer is not run, so
// storage changes should not move it.
//
// The population keeps the grid's density at city scale: the scenario's
// map is 12 km × 12 km whatever the population, so fewer agents make a
// sparser city and cheaper KNN searches. Traced runs of seed 1 on a
// 2-vCPU Intel Xeon virtual machine gave (ledger rows as shares of client
// time):
//
//	                          6000 agents   20000 agents
//	day-1 events                  238k          789k
//	calls / events               11.4%         11.4%
//	generalized / calls          42.1%         42.5%
//	ledger: stindex              40.0%         46.9%
//	  of which grid KNN          30.5%         37.7%
//	ledger: phl                  13.0%         13.0%
//	Record + Insert              20.7%         19.8%
//	grid KNN call                 39 µs         69 µs
//	untraced events/s            ~240k         ~147k
//	call p99                     ~125 µs       ~220 µs
//
// The traffic mix does not depend on the size, but the cost profile does:
// at 20000 agents grid KNN takes 38% of client time, at 6000 only 31%,
// with each search about half as expensive; the smaller city would
// understate the layer this workload exists to measure. 20000 agents cost
// about 5 s of set-up and 5 s of measured day per repetition, so a 40 s
// run makes three or four repetitions.
//
// federation-2c, the two-client federation workload, is not part of the
// benchmark: with both CPUs of the 2-vCPU host saturated its timings
// followed the host's speed drift, and over ten 30 s runs the
// interquartile spread of call_p99_us reached 0.38 of its median and that
// of events_per_s 0.19, beyond the largest bound (0.25) a metric may have.
// The concurrency workload is left to a later change.
//
// rural-tiered: the rural scenario at 5000 agents on storage.TieredStore
// (hot window 1 h, cold cache 1024 entries, WAL fsync none), one client.
// The only workload that runs internal/storage — a WAL append per sample,
// demotion, delta snapshots, cold reads through the LRU — and the only one
// that bypasses the grid, since the store serves KNN itself; grid changes
// should not move it. Set-up ends with Close and a reopen, so the measured
// day starts from recovered state. A day appends more than the store's
// 65536-record maintenance interval, so both the preload and the measured
// day demote and write a delta snapshot. The population is sparse: KNN reaches
// far and about half the generalizations fail, which drives mix-zone
// unlinking; storage changes show in call_p99_us, events_per_s and setup_s.
// It uses fsync none because the disk the benchmark runs on is not the
// deployment's disk; fsync cost belongs to a measurement on that disk.
//
// # Metrics
//
// With --trace 0 a run reports, over its measured days: events_per_s
// (median over repetitions), call_p50_us and call_p99_us (over all calls),
// ok_frac (one minus the failed share: frames in non-200 POSTs plus
// degraded decisions, over events attempted; the failed share itself is
// usually exactly 0, which a relative bound cannot judge), setup_s and
// heap_growth_mb (medians; the heap is read after a forced collection once
// set-up ends and again after the measured day), forwarded_frac, hk_frac
// and box_area_p50_m2. The last three guard against a speed-up that trades
// privacy or service quality for speed.
//
// With --trace 1 a run alternates untraced and traced repetitions of the
// same city. The traced ones install timing wrappers on the seams ts
// already exposes (Config.Store, Config.Index, the outbox given to ts.New)
// and around ServeHTTP and the client's own encoding, set head sampling to
// 100% so the program's stage histograms fill, and read the program's
// counters. Per-layer values are medians over traced repetitions, except
// runtime.*, which come from the untraced ones. A metric of a layer the
// workload does not run reads 0.
//
// The ledger rows are client time per event and sum to the measured
// phase's wall time, with the unattributed residual — the client loop
// itself — as its own row. Rows that overlap and cannot be split from
// outside are merged:
//
//   - server_other: ServeHTTP time not covered by a seam or stage: HTTP
//     routing and admission, wire parsing and decision encoding, and the
//     trusted server's bookkeeping outside its stages (user registry,
//     counters, pseudonyms, SLO feed, span recording);
//   - generalize_unlink: the KNN, box, tolerance and unlink stages minus
//     the store and index reads made inside them. Algorithm 1's KNN phase
//     and the unlink stage make the same kinds of reads and a wrapper
//     cannot tell which stage made one, so the KNN phase's self time is
//     reported together with the unlink stage's, as
//     generalize.knn_unlink_self_ns per generalized call.
//
// ledger.tracing_overhead is the traced wall time per event over the
// untraced one, minus one.
//
// # Output checks
//
// Every run checks, and exits 1 on any violation: one decision frame
// parses per call; every forwarded context contains the call's exact
// point; every forwarded context with HKAnonymity fits the service
// tolerance; the server counted as many requests as calls were sent and
// forwarded + suppressed = requests; the SLO engine saw one decision per
// call; the store holds one sample per event sent.
//
// A traced run also checks that every traced repetition's per-layer
// values are non-negative and ledger.attributed_frac lies in [0, 1]. The
// rows sum to client time by construction, so this is what catches a seam
// or stage counted twice: it drives server_other or generalize_unlink
// below zero. And since a traced run repeats each city, untraced then
// traced, it requires the two to make the same decisions (equal digests)
// unless one of them shed a call. With --trace 0 every repetition runs its
// own city, so this comparison is made across runs: two runs with the same
// seed print the same per-repetition digests.
//
// # Known behaviour of the seed commit
//
// Recorded for later changes to cite; the server is configured as lbserve
// configures it, with none of it tuned away.
//
//   - TieredStore.KNearestUsers scans cold runs linearly: storage takes
//     about 90% of rural-tiered's ledger, with KNN calls near a
//     millisecond.
//   - The lbserve-default outbox (queue 1024) shed queue_full sporadically
//     in rush-1c when the client sent calls without ever yielding: between
//     0 and about 1500 calls in a repetition, a different number in every
//     run, although the sink discards. In lbserve the handler goroutines
//     block on their sockets and the workers run then; a client that never
//     blocks can leave them unscheduled until the queue is full. The
//     client therefore yields before a call while the queue is full, and
//     resilience.queue_full_waits counts the calls that had to; the queue
//     keeps lbserve's size. resilience.shed_queue_full and
//     resilience.queue_depth_max are still reported, and decision digests
//     are compared only across repetitions that shed nothing.
//   - phl.Store.History hands out a *phl.History that Record keeps
//     appending to after the store lock is released, so with concurrent
//     clients a reader (Algorithm 1, mix-zone planning) races a writer on
//     it; go test -race reported it when this benchmark drove two clients.
//     The benchmark runs one client, so it does not exercise this race.
package main
