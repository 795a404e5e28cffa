// Command perfbench is iGDB's repository benchmark. One invocation runs one
// workload, checks the program's outputs, and prints every metric by name
// and unit:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics a user of the system sees;
// with --trace 1 it prints the per-layer breakdown instead. The last line of
// standard output is always one JSON object with the keys correct,
// attempted, failed and metrics. The line before it carries provenance and
// sample counts. README.md lists the workloads and metrics and says why
// each exists.
//
// The benchmark measures every layer from outside: it times calls into
// public functions and reads the counters the program already exposes (the
// build's span tree, /metrics, EXPLAIN ANALYZE actuals).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every --trace 0 run prints, in every workload.
// README.md says what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"build_s", "s"},
	{"replica_sync_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
}

// buildStages maps build_trace span names to their per-layer metrics.
// core.build_other_ms is the traced build's wall time these stages leave:
// the schema and source_status spans, and work no span covers.
var buildStages = []struct{ span, metric string }{
	{"load/naturalearth", "core.load.naturalearth_ms"},
	{"load/atlas", "core.load.atlas_ms"},
	{"load/peeringdb", "core.load.peeringdb_ms"},
	{"load/telegeography", "core.load.telegeography_ms"},
	{"load/pch", "core.load.pch_ms"},
	{"load/he", "core.load.he_ms"},
	{"load/euroix", "core.load.euroix_ms"},
	{"load/rdns", "core.load.rdns_ms"},
	{"load/asrank", "core.load.asrank_ms"},
	{"load/routeviews", "core.load.routeviews_ms"},
	{"load/ripeatlas", "core.load.ripeatlas_ms"},
	{"gazetteer", "core.gazetteer_ms"},
	{"voronoi", "voronoi.tessellate_ms"},
	{"right_of_way", "core.right_of_way_ms"},
	{"infer_standard_paths", "core.infer_standard_paths_ms"},
	{"path_network", "core.path_network_ms"},
}

// perLayer are the metrics every --trace 1 run prints, in every workload.
// A metric the workload lists as unmeasured reads 0; every other one must
// be measured, and only a mayReadZero metric may measure 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"worldgen.generate_s", "s"},
		{"ingest.collect_s", "s"},
	}
	for _, st := range buildStages {
		defs = append(defs, metricDef{st.metric, "ms"})
	}
	return append(defs,
		metricDef{"core.build_other_ms", "ms"},
		metricDef{"build.stage_coverage_pct", "%"},
		metricDef{"graph.route_us", "us"},
		metricDef{"build.alloc_mb", "MB"},
		metricDef{"build.gc_cycles", "count"},
		metricDef{"build.trace_overhead_pct", "%"},
		metricDef{"build.trace_overhead_iqr_pct", "%"},
		metricDef{"build.trace_pairs", "count"},
		metricDef{"replicate.artifact_ms", "ms"},
		metricDef{"replicate.artifact_mb", "MB"},
		metricDef{"replicate.fetch_ms", "ms"},
		metricDef{"core.from_relations_ms", "ms"},
		metricDef{"server.handler_hit_us", "us"},
		metricDef{"server.handler_miss_us", "us"},
		metricDef{"http.loopback_us", "us"},
		metricDef{"server.result_cache_hit_ratio", "ratio"},
		metricDef{"server.plan_cache_hit_ratio", "ratio"},
		metricDef{"reldb.fingerprint_us", "us"},
		metricDef{"reldb.prepare_us", "us"},
		metricDef{"reldb.exec_us", "us"},
		metricDef{"reldb.rows_examined_per_row", "ratio"},
		metricDef{"render.export_us", "us"},
		metricDef{"core.paths_route_us", "us"},
		metricDef{"serve.alloc_kb_per_op", "KB"},
		metricDef{"serve.gc_cycles", "count"},
		metricDef{"simulate.new_engine_ms", "ms"},
		metricDef{"simulate.cable_cut_ms", "ms"},
		metricDef{"simulate.metro_down_ms", "ms"},
		metricDef{"simulate.segment_cut_ms", "ms"},
		metricDef{"simulate.hazard_ms", "ms"},
		metricDef{"simulate.parallel_speedup", "ratio"},
	)
}()

// serveOnly are the per-layer metrics only a serve workload's timed run
// measures; build-paper has none.
var serveOnly = []string{
	"server.result_cache_hit_ratio",
	"server.plan_cache_hit_ratio",
	"serve.alloc_kb_per_op",
	"serve.gc_cycles",
}

// mayReadZero are the metrics a run can measure as 0: in serve-lookup
// nearly every request misses both caches.
var mayReadZero = []string{
	"server.result_cache_hit_ratio",
	"server.plan_cache_hit_ratio",
}

// workloads maps each workload name to its runner, its world size, and the
// per-layer metrics its traced run does not measure.
var workloads = map[string]struct {
	scale      string
	run        func(*env) error
	unmeasured []string
}{
	"build-paper":  {"paper", runBuildPaper, serveOnly},
	"serve-lookup": {"small", runServeLookup, nil},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string // tiny, small or paper; "" means the workload's own (the smoke test sets tiny)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: build-paper or serve-lookup")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the request schedule and the probes' samples")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed run in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	o.trace = trace == 1

	res, info, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	infoLine, err := json.Marshal(info)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	last, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(infoLine))
	fmt.Println(string(last))
}

// run executes one workload and assembles its result and its info line.
func run(o options) (*result, map[string]interface{}, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, names)
	}
	if o.scale == "" {
		o.scale = wl.scale
	}
	if o.seconds <= 0 {
		return nil, nil, fmt.Errorf("--seconds must be positive")
	}
	e, err := newEnv(o)
	if err != nil {
		return nil, nil, err
	}
	defer e.close()
	if err := wl.run(e); err != nil {
		return nil, nil, err
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := &result{
		Correct:   e.failed == 0 && len(e.selfChecks) == 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		// A probe that stops recording, or records nothing, must not pass
		// as a reading of 0.
		v, ok := e.metrics[d.name]
		unmeasured := slices.Contains(wl.unmeasured, d.name)
		switch {
		case ok && unmeasured:
			return nil, nil, fmt.Errorf("workload %s measured %s, which it lists as unmeasured", o.workload, d.name)
		case !ok && !unmeasured:
			return nil, nil, fmt.Errorf("workload %s did not measure %s", o.workload, d.name)
		case ok && v == 0 && !slices.Contains(mayReadZero, d.name):
			return nil, nil, fmt.Errorf("workload %s measured %s as 0", o.workload, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return nil, nil, fmt.Errorf("workload %s attempted no operation", o.workload)
	}
	info := map[string]interface{}{
		"workload":    o.workload,
		"trace":       o.trace,
		"error_ratio": float64(e.failed) / float64(e.attempted),
		"self_checks": e.selfChecks,
		"samples":     e.samples,
		"provenance":  e.provenance(),
	}
	if v, ok := e.metrics["server.result_cache_hit_ratio"]; ok {
		info["result_cache_hit_ratio"] = v // what the serve self-checks judged
	}
	return res, info, nil
}

// provenance records what produced a result: code, toolchain, machine,
// world and the sizes of the relations the workloads read most.
func (e *env) provenance() map[string]interface{} {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+modified"
			}
		}
	}
	p := map[string]interface{}{
		"commit":      commit,
		"go":          runtime.Version(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"scale":       e.o.scale,
		"world_seed":  e.cfg.Seed,
		"seed":        e.o.seed,
		"seconds":     e.o.seconds,
		"finished_at": time.Now().UTC().Format(time.RFC3339),
	}
	if e.ref != nil {
		for _, rel := range []string{"asn_loc", "asn_name", "std_paths"} {
			p[rel+"_rows"] = e.ref.Rel.Table(rel).Len()
		}
		p["std_paths_sha256"] = hashRelation(e.ref.Rel, "std_paths")
	}
	return p
}
