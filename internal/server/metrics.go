package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"igdb/internal/core"
	"igdb/internal/obs"
)

// latencyBuckets are the histogram upper bounds in milliseconds. The +Inf
// bucket is implicit (the total count).
var latencyBuckets = []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}

// routeStats are per-endpoint counters, including a per-route latency
// histogram alongside the server-wide aggregate one.
type routeStats struct {
	requests atomic.Uint64
	errors   atomic.Uint64 // responses with status >= 400

	latCounts []atomic.Uint64 // one per latencyBuckets entry
	latCount  atomic.Uint64
	latSumUs  atomic.Uint64 // total microseconds
}

// Metrics aggregates the server's observability counters. All updates are
// lock-free atomics; the registry map is fixed at construction.
type Metrics struct {
	mu     sync.Mutex
	routes map[string]*routeStats // guarded by mu

	latCounts []atomic.Uint64 // aggregate histogram, one per latencyBuckets entry
	latCount  atomic.Uint64
	latSumUs  atomic.Uint64 // total microseconds

	resultHits   atomic.Uint64
	resultMisses atomic.Uint64
	planHits     atomic.Uint64
	planMisses   atomic.Uint64

	rebuilds      atomic.Uint64
	rebuildErrors atomic.Uint64

	replFetches      atomic.Uint64 // snapshot transfers attempted (manifest obtained)
	replFetchErrors  atomic.Uint64 // failed polls and failed transfers
	replQuarantined  atomic.Uint64 // transfers discarded before serving (corrupt/partial)
	replChunkRetries atomic.Uint64 // per-chunk retry sleeps across all transfers
	replBytes        atomic.Uint64 // verified chunk bytes installed
	simScenarios     atomic.Uint64 // what-if scenarios evaluated across all snapshots
	simErrors        atomic.Uint64 // snapshot simulation batches that failed
	panics           atomic.Uint64
	rejected         atomic.Uint64 // limiter/timeout rejections (503/504)
	sqlAbandoned     atomic.Uint64 // /sql queries left running after a 504
	slowQueries      atomic.Uint64 // /sql statements over the slow-query threshold
	inflight         atomic.Int64
}

func newMetrics() *Metrics {
	return &Metrics{
		routes:    make(map[string]*routeStats),
		latCounts: make([]atomic.Uint64, len(latencyBuckets)),
	}
}

// route returns (registering on first use) the counters for an endpoint.
func (m *Metrics) route(name string) *routeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.routes[name]
	if !ok {
		rs = &routeStats{latCounts: make([]atomic.Uint64, len(latencyBuckets))}
		m.routes[name] = rs
	}
	return rs
}

// observe records one served request in the route's histogram and the
// aggregate one.
func (m *Metrics) observe(rs *routeStats, status int, elapsed time.Duration) {
	rs.requests.Add(1)
	if status >= 400 {
		rs.errors.Add(1)
	}
	ms := float64(elapsed) / float64(time.Millisecond)
	us := uint64(elapsed / time.Microsecond)
	for i, ub := range latencyBuckets {
		if ms <= ub {
			m.latCounts[i].Add(1)
			rs.latCounts[i].Add(1)
		}
	}
	m.latCount.Add(1)
	m.latSumUs.Add(us)
	rs.latCount.Add(1)
	rs.latSumUs.Add(us)
}

// resultHitRate returns hits/(hits+misses), or 0 before any lookup.
func (m *Metrics) resultHitRate() float64 {
	h, mi := m.resultHits.Load(), m.resultMisses.Load()
	if h+mi == 0 {
		return 0
	}
	return float64(h) / float64(h+mi)
}

// snapGauges are the point-in-time gauges derived from the serving
// snapshot, sampled by the server at scrape time.
type snapGauges struct {
	seq            uint64
	age            time.Duration
	buildTime      time.Duration
	degraded       int // 1 when serving degraded (bad source, no pipeline, or failed rebuild)
	quarantined    int // sources quarantined in the serving snapshot
	sources        []core.SourceStatus
	stages         []obs.StageTiming
	collectRetries uint64
	simScenarios   int           // scenarios simulated against the serving snapshot
	simTime        time.Duration // wall time of that simulation batch
	repl           replGauges    // replication role, lag, and leader seq
	stmt           stmtTotals    // statement-statistics aggregator sums
}

// replGauges is the point-in-time replication state sampled at scrape time.
type replGauges struct {
	role       Role
	leaderSeq  uint64
	lastSyncAt time.Time
	lastErr    string
	lagS       float64 // follower: seconds behind the leader's build; -1 before first sync
}

// num renders the role as a stable gauge value.
func (g replGauges) num() int {
	switch g.role {
	case RoleLeader:
		return 1
	case RoleFollower:
		return 2
	default:
		return 0
	}
}

// help emits the HELP/TYPE header for one metric. Every exposed metric name
// goes through here exactly once so the exposition stays lint-clean.
func help(w io.Writer, name, typ, text string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, text, name, typ)
}

// writeHistogram emits one histogram series; labels ("" for the aggregate)
// is the pre-rendered label prefix like `route="/sql",`.
func writeHistogram(w io.Writer, labels string, counts []atomic.Uint64, count, sumUs *atomic.Uint64) {
	for i, ub := range latencyBuckets {
		fmt.Fprintf(w, "igdb_request_duration_ms_bucket{%sle=%q} %d\n",
			labels, fmt.Sprintf("%g", ub), counts[i].Load())
	}
	fmt.Fprintf(w, "igdb_request_duration_ms_bucket{%sle=\"+Inf\"} %d\n", labels, count.Load())
	if labels == "" {
		fmt.Fprintf(w, "igdb_request_duration_ms_sum %g\n", float64(sumUs.Load())/1000)
		fmt.Fprintf(w, "igdb_request_duration_ms_count %d\n", count.Load())
		return
	}
	trimmed := labels[:len(labels)-1] // drop the trailing comma
	fmt.Fprintf(w, "igdb_request_duration_ms_sum{%s} %g\n", trimmed, float64(sumUs.Load())/1000)
	fmt.Fprintf(w, "igdb_request_duration_ms_count{%s} %d\n", trimmed, count.Load())
}

// WriteTo renders the Prometheus text exposition format. Snapshot gauges
// (age, seq, build time, degradation, per-source and per-stage timings) are
// passed in by the server at scrape time.
func (m *Metrics) WriteTo(w io.Writer, g snapGauges) {
	m.mu.Lock()
	names := make([]string, 0, len(m.routes))
	for name := range m.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	stats := make([]*routeStats, len(names))
	for i, name := range names {
		stats[i] = m.routes[name]
	}
	m.mu.Unlock()

	help(w, "igdb_requests_total", "counter", "Requests served, by route.")
	for i, name := range names {
		fmt.Fprintf(w, "igdb_requests_total{route=%q} %d\n", name, stats[i].requests.Load())
	}
	help(w, "igdb_request_errors_total", "counter", "Responses with status >= 400, by route.")
	for i, name := range names {
		fmt.Fprintf(w, "igdb_request_errors_total{route=%q} %d\n", name, stats[i].errors.Load())
	}

	help(w, "igdb_request_duration_ms", "histogram",
		"Request latency histogram in milliseconds; unlabeled series is the all-routes aggregate.")
	writeHistogram(w, "", m.latCounts, &m.latCount, &m.latSumUs)
	for i, name := range names {
		labels := fmt.Sprintf("route=%q,", name)
		writeHistogram(w, labels, stats[i].latCounts, &stats[i].latCount, &stats[i].latSumUs)
	}

	help(w, "igdb_result_cache_hits_total", "counter", "Result-cache hits on POST /sql.")
	fmt.Fprintf(w, "igdb_result_cache_hits_total %d\n", m.resultHits.Load())
	help(w, "igdb_result_cache_misses_total", "counter", "Result-cache misses on POST /sql.")
	fmt.Fprintf(w, "igdb_result_cache_misses_total %d\n", m.resultMisses.Load())
	help(w, "igdb_result_cache_hit_rate", "gauge", "Result-cache hits / lookups since start.")
	fmt.Fprintf(w, "igdb_result_cache_hit_rate %g\n", m.resultHitRate())
	help(w, "igdb_plan_cache_hits_total", "counter", "Plan-cache hits on POST /sql.")
	fmt.Fprintf(w, "igdb_plan_cache_hits_total %d\n", m.planHits.Load())
	help(w, "igdb_plan_cache_misses_total", "counter", "Plan-cache misses on POST /sql.")
	fmt.Fprintf(w, "igdb_plan_cache_misses_total %d\n", m.planMisses.Load())

	help(w, "igdb_rebuilds_total", "counter", "Successful snapshot rebuilds.")
	fmt.Fprintf(w, "igdb_rebuilds_total %d\n", m.rebuilds.Load())
	help(w, "igdb_rebuild_errors_total", "counter", "Failed snapshot rebuild attempts.")
	fmt.Fprintf(w, "igdb_rebuild_errors_total %d\n", m.rebuildErrors.Load())
	help(w, "igdb_panics_recovered_total", "counter", "Handler panics recovered by middleware.")
	fmt.Fprintf(w, "igdb_panics_recovered_total %d\n", m.panics.Load())
	help(w, "igdb_requests_rejected_total", "counter", "Requests rejected by the limiter or deadline (503/504).")
	fmt.Fprintf(w, "igdb_requests_rejected_total %d\n", m.rejected.Load())
	help(w, "igdb_sql_abandoned_total", "counter", "POST /sql queries that hit the request deadline (504) and ran on, holding their limiter slot, until they returned.")
	fmt.Fprintf(w, "igdb_sql_abandoned_total %d\n", m.sqlAbandoned.Load())
	help(w, "igdb_slow_queries_total", "counter", "POST /sql statements over the slow-query threshold.")
	fmt.Fprintf(w, "igdb_slow_queries_total %d\n", m.slowQueries.Load())
	help(w, "igdb_requests_inflight", "gauge", "Requests currently executing.")
	fmt.Fprintf(w, "igdb_requests_inflight %d\n", m.inflight.Load())

	help(w, "igdb_snapshot_seq", "gauge", "Sequence number of the serving snapshot.")
	fmt.Fprintf(w, "igdb_snapshot_seq %d\n", g.seq)
	help(w, "igdb_snapshot_age_seconds", "gauge", "Seconds since the serving snapshot was built.")
	fmt.Fprintf(w, "igdb_snapshot_age_seconds %g\n", g.age.Seconds())
	help(w, "igdb_snapshot_build_seconds", "gauge", "Wall time the serving snapshot took to build.")
	fmt.Fprintf(w, "igdb_snapshot_build_seconds %g\n", g.buildTime.Seconds())
	help(w, "igdb_degraded", "gauge", "1 when the serving snapshot is degraded (quarantined source, missing paths pipeline, or failed rebuild).")
	fmt.Fprintf(w, "igdb_degraded %d\n", g.degraded)
	help(w, "igdb_quarantined_sources", "gauge", "Sources quarantined in the serving snapshot.")
	fmt.Fprintf(w, "igdb_quarantined_sources %d\n", g.quarantined)

	help(w, "igdb_simulate_scenarios_total", "counter", "What-if failure scenarios evaluated across all snapshot simulations in this process.")
	fmt.Fprintf(w, "igdb_simulate_scenarios_total %d\n", m.simScenarios.Load())
	help(w, "igdb_simulate_errors_total", "counter", "Snapshot simulation batches that failed (snapshot served with empty scenario relations).")
	fmt.Fprintf(w, "igdb_simulate_errors_total %d\n", m.simErrors.Load())
	help(w, "igdb_simulate_snapshot_scenarios", "gauge", "Scenarios simulated against the serving snapshot.")
	fmt.Fprintf(w, "igdb_simulate_snapshot_scenarios %d\n", g.simScenarios)
	help(w, "igdb_simulate_snapshot_seconds", "gauge", "Wall time of the serving snapshot's simulation batch.")
	fmt.Fprintf(w, "igdb_simulate_snapshot_seconds %g\n", g.simTime.Seconds())

	help(w, "igdb_sql_statements", "gauge", "Distinct statement fingerprints tracked by the statement-statistics aggregator.")
	fmt.Fprintf(w, "igdb_sql_statements %d\n", g.stmt.distinct)
	help(w, "igdb_sql_calls_total", "counter", "POST /sql executions aggregated by statement fingerprint.")
	fmt.Fprintf(w, "igdb_sql_calls_total %d\n", g.stmt.calls)
	help(w, "igdb_sql_errors_total", "counter", "POST /sql executions that returned an error, across all fingerprints.")
	fmt.Fprintf(w, "igdb_sql_errors_total %d\n", g.stmt.errors)
	help(w, "igdb_sql_rows_total", "counter", "Result rows produced by POST /sql, across all fingerprints.")
	fmt.Fprintf(w, "igdb_sql_rows_total %d\n", g.stmt.rows)
	help(w, "igdb_sql_parse_seconds_total", "counter", "Wall time spent parsing and planning /sql statements (plan-cache misses only).")
	fmt.Fprintf(w, "igdb_sql_parse_seconds_total %g\n", float64(g.stmt.parseNs)/1e9)
	help(w, "igdb_sql_exec_seconds_total", "counter", "Wall time spent executing /sql statements.")
	fmt.Fprintf(w, "igdb_sql_exec_seconds_total %g\n", float64(g.stmt.execNs)/1e9)
	help(w, "igdb_sql_dropped_total", "counter", "Executions not attributed to a fingerprint because the statement table was at capacity.")
	fmt.Fprintf(w, "igdb_sql_dropped_total %d\n", g.stmt.dropped)

	help(w, "igdb_replica_role", "gauge", "Replication role: 0 standalone, 1 leader, 2 follower.")
	fmt.Fprintf(w, "igdb_replica_role %d\n", g.repl.num())
	help(w, "igdb_replica_fetches_total", "counter", "Snapshot transfers attempted by this follower.")
	fmt.Fprintf(w, "igdb_replica_fetches_total %d\n", m.replFetches.Load())
	help(w, "igdb_replica_fetch_errors_total", "counter", "Failed leader polls and failed snapshot transfers.")
	fmt.Fprintf(w, "igdb_replica_fetch_errors_total %d\n", m.replFetchErrors.Load())
	help(w, "igdb_replica_quarantined_total", "counter", "Snapshot transfers discarded before serving (corrupt, partial, or undecodable).")
	fmt.Fprintf(w, "igdb_replica_quarantined_total %d\n", m.replQuarantined.Load())
	help(w, "igdb_replica_chunk_retries_total", "counter", "Per-chunk fetch retries across all snapshot transfers.")
	fmt.Fprintf(w, "igdb_replica_chunk_retries_total %d\n", m.replChunkRetries.Load())
	help(w, "igdb_replica_bytes_total", "counter", "Verified chunk bytes installed by this follower.")
	fmt.Fprintf(w, "igdb_replica_bytes_total %d\n", m.replBytes.Load())
	help(w, "igdb_replica_lag_seconds", "gauge", "Follower: seconds between the leader building the serving snapshot and now; -1 before the first sync, 0 when not a follower.")
	fmt.Fprintf(w, "igdb_replica_lag_seconds %g\n", g.repl.lagS)
	help(w, "igdb_replica_leader_seq", "gauge", "Newest snapshot seq the leader has advertised to this follower.")
	fmt.Fprintf(w, "igdb_replica_leader_seq %d\n", g.repl.leaderSeq)

	help(w, "igdb_source_load_seconds", "gauge", "Per-source load wall time in the serving snapshot's build.")
	for _, st := range g.sources {
		fmt.Fprintf(w, "igdb_source_load_seconds{source=%q} %g\n", st.Source, st.LoadTime.Seconds())
	}
	help(w, "igdb_source_rows", "gauge", "Rows loaded per source in the serving snapshot's build.")
	for _, st := range g.sources {
		fmt.Fprintf(w, "igdb_source_rows{source=%q} %d\n", st.Source, st.RowsLoaded)
	}
	help(w, "igdb_build_stage_seconds", "gauge", "Wall time per top-level build stage in the serving snapshot's span trace.")
	for _, st := range g.stages {
		fmt.Fprintf(w, "igdb_build_stage_seconds{stage=%q} %g\n", st.Name, st.Seconds)
	}
	help(w, "igdb_collect_retries_total", "counter", "Ingest fetch retries across all collects in this process.")
	fmt.Fprintf(w, "igdb_collect_retries_total %d\n", g.collectRetries)
}
