package main

import (
	"fmt"
	"runtime"
	"time"

	"igdb/internal/core"
	"igdb/internal/obs"
)

// extraSyncs is how many follower syncs build-paper times after its
// cycles. A run has room for only two or three cycles, and a sync is a
// fifth of one, so these give replica_sync_s a median over more samples.
const extraSyncs = 3

// runBuildPaper is the build-paper workload. Set-up generates and collects
// the paper-scale world, builds a leader server and syncs a first follower.
// Each timed operation is one refresh cycle: an untraced core.Build of the
// collected sources, then a fresh follower's sync from the leader.
// build_s is the median of the builds and replica_sync_s the median of the
// cycles' syncs and extraSyncs more; p50_ms, p99_ms and ops_per_s describe
// whole cycles.
func runBuildPaper(e *env) error {
	if err := e.setUp(1, nil); err != nil {
		return err
	}
	if err := e.checkReplica(1); err != nil {
		return err
	}
	dur := time.Duration(e.o.seconds * float64(time.Second))
	if e.o.trace {
		// Two pairs at least, one in each order.
		if err := e.probeBuilds(dur, 2); err != nil {
			return err
		}
		return e.probeLayers()
	}
	var builds, syncs, cycles []float64
	deadline := time.Now().Add(dur)
	for first := true; first || time.Now().Before(deadline); first = false {
		settle()
		g, bd, err := e.untracedBuild()
		if err != nil {
			return err
		}
		e.checkBuild(g)
		e.ref = g
		settle()
		f, sd, err := e.syncFollower()
		if !e.check(err == nil, "follower sync: %v", err) {
			continue
		}
		e.checkFollower(f)
		builds = append(builds, bd.Seconds())
		syncs = append(syncs, sd.Seconds())
		cycles = append(cycles, ms(bd+sd))
	}
	for i := 0; i < extraSyncs; i++ {
		settle()
		f, sd, err := e.syncFollower()
		if !e.check(err == nil, "follower sync: %v", err) {
			continue
		}
		e.checkFollower(f)
		syncs = append(syncs, sd.Seconds())
	}
	total := 0.0
	for _, c := range cycles {
		total += c
	}
	e.metrics["build_s"] = median(builds)
	e.metrics["replica_sync_s"] = median(syncs)
	e.metrics["ops_per_s"] = float64(len(cycles)) / (total / 1000)
	e.metrics["p50_ms"] = median(cycles)
	e.metrics["p99_ms"] = percentile(cycles, 0.99)
	e.samples["cycles"] = len(cycles)
	e.samples["syncs"] = len(syncs)
	return nil
}

// selfTimes maps each span of a build trace to its self time in ms: its
// duration minus the part its children cover. Build span names are unique
// within one trace.
func selfTimes(root *obs.Span) map[string]float64 {
	infos := root.Flatten()
	self := make(map[string]float64, len(infos))
	for _, si := range infos {
		self[si.Name] += si.DurationMs
		if si.Parent != "" {
			self[si.Parent] -= si.DurationMs
		}
	}
	return self
}

// probeBuilds alternates untraced and traced builds, in ABBA order so
// neither kind always runs first, for budget and at least minPairs pairs.
// Traced builds give the per-stage self times; untraced builds give
// allocation and GC counts; each pair gives one tracing-overhead sample.
// The last untraced build becomes ref.
func (e *env) probeBuilds(budget time.Duration, minPairs int) error {
	stages := make(map[string][]float64)
	var other, coverage, allocMB, gcs, overhead []float64
	deadline := time.Now().Add(budget)
	for i := 0; i < minPairs || time.Now().Before(deadline); i++ {
		var plain, traced time.Duration
		for _, withTrace := range [2]bool{i%2 == 1, i%2 == 0} {
			settle()
			if !withTrace {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				g, d, err := e.untracedBuild()
				runtime.ReadMemStats(&m1)
				if err != nil {
					return err
				}
				allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
				gcs = append(gcs, float64(m1.NumGC-m0.NumGC))
				e.checkBuild(g)
				e.ref, plain = g, d
				continue
			}
			t0 := time.Now()
			g, err := core.Build(e.store, core.BuildOptions{})
			traced = time.Since(t0)
			if err != nil {
				return err
			}
			e.checkBuild(g)
			self := selfTimes(g.BuildTrace)
			sum := 0.0
			for _, st := range buildStages {
				stages[st.metric] = append(stages[st.metric], self[st.span])
				sum += self[st.span]
			}
			other = append(other, ms(traced)-sum)
			// Only named spans count: work inside Build that none of them
			// covers, the root span's own time included, lowers coverage.
			named := sum + self["schema"] + self["source_status"]
			coverage = append(coverage, 100*named/ms(traced))
		}
		overhead = append(overhead, 100*(traced.Seconds()-plain.Seconds())/plain.Seconds())
	}
	for name, xs := range stages {
		e.metrics[name] = median(xs)
	}
	e.metrics["core.build_other_ms"] = median(other)
	e.metrics["build.stage_coverage_pct"] = median(coverage)
	for _, c := range coverage {
		e.selfCheck(c >= 95 && c <= 105, "build stage self times cover %.1f%% of the traced build's wall time", c)
	}
	e.metrics["build.alloc_mb"] = median(allocMB)
	e.metrics["build.gc_cycles"] = median(gcs)
	q1, q3 := quartiles(overhead)
	e.metrics["build.trace_overhead_pct"] = median(overhead)
	e.metrics["build.trace_overhead_iqr_pct"] = q3 - q1
	e.metrics["build.trace_pairs"] = float64(len(overhead))
	e.samples["trace_pairs"] = len(overhead)
	if len(overhead) == 0 {
		return fmt.Errorf("no build pair ran")
	}
	return nil
}
