package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"time"

	"igdb/internal/reldb"
	"igdb/internal/render"
	"igdb/internal/replicate"
	"igdb/internal/simulate"
)

// hitSQL is the paper's Table 2 query as the harvested corpus holds it:
// the heaviest read the demo UI issues, and a result-cache hit once warm.
const hitSQL = `SELECT l.asn, MIN(n.asn_name) AS name, MIN(o.organization) AS org,
	COUNT(DISTINCT l.country) AS countries
	FROM asn_loc l
	JOIN asn_name n ON n.asn = l.asn AND n.source = 'asrank'
	JOIN asn_org  o ON o.asn = l.asn AND o.source = 'asrank'
	GROUP BY l.asn
	ORDER BY countries DESC, l.asn ASC
	LIMIT 11`

// missSQL is a per-AS lookup no workload sends, so every ASN makes a
// request neither cache holds.
const missSQL = `SELECT asn, metro, country FROM asn_loc WHERE asn = %d`

// paperScale reports whether the run is at paper scale, where the probes
// take fewer samples of their costlier calls.
func (e *env) paperScale() bool { return e.o.scale == "paper" }

// probeLayers measures every layer on this run's world by timing calls
// into its public functions, each into its own per-layer metric.
func (e *env) probeLayers() error {
	pairs := e.endpointPairs(300)
	if err := e.probeRoutes(pairs); err != nil {
		return err
	}
	if err := e.probeArtifact(); err != nil {
		return err
	}
	if err := e.probeServer(); err != nil {
		return err
	}
	if err := e.probeReldb(); err != nil {
		return err
	}
	e.probeRender()
	return e.probeSimulate()
}

// endpointPairs returns up to n std_paths endpoint pairs of the reference
// build, chosen by seed, as city indexes.
func (e *env) endpointPairs(n int) [][2]int {
	rows := e.ref.Rel.MustQuery(`SELECT from_metro, from_state, from_country,
		to_metro, to_state, to_country FROM std_paths`)
	var pairs [][2]int
	for _, r := range rows.Rows {
		t := func(j int) string { s, _ := r[j].AsText(); return s }
		a, b := e.ref.CityIndex(t(0), t(1), t(2)), e.ref.CityIndex(t(3), t(4), t(5))
		if a >= 0 && b >= 0 {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	rand.New(rand.NewSource(e.o.seed)).Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	if len(pairs) > n {
		pairs = pairs[:n]
	}
	return pairs
}

// probeRoutes times one right-of-way route (the build's path-inference
// kernel) and one shortest practical path (what /path serves) per pair.
func (e *env) probeRoutes(pairs [][2]int) error {
	if len(pairs) == 0 {
		return fmt.Errorf("std_paths is empty")
	}
	var row, practical []float64
	for _, p := range pairs {
		var ok1, ok2 bool
		row = append(row, us(timeIt(func() { _, _, ok1 = e.ref.Row.Route(p[0], p[1]) })))
		practical = append(practical, us(timeIt(func() { _, _, ok2 = e.ref.Paths.ShortestPracticalPath(p[0], p[1]) })))
		e.check(ok1 && ok2, "no route between std_paths endpoints %d and %d", p[0], p[1])
	}
	e.metrics["graph.route_us"] = median(row)
	e.metrics["core.paths_route_us"] = median(practical)
	return nil
}

// probeArtifact times encoding a snapshot as a replication artifact.
func (e *env) probeArtifact() error {
	var times []float64
	var size int64
	deadline := time.Now().Add(time.Second)
	for len(times) == 0 || (len(times) < 10 && time.Now().Before(deadline)) {
		var art *replicate.Artifact
		var err error
		times = append(times, ms(timeIt(func() {
			art, err = replicate.BuildArtifact(e.ref.Rel, e.store, 1, time.Now(), time.Time{})
		})))
		if err != nil {
			return err
		}
		size = art.Manifest.TotalBytes
	}
	e.metrics["replicate.artifact_ms"] = median(times)
	e.metrics["replicate.artifact_mb"] = float64(size) / 1e6
	return nil
}

// serveRecorded runs one request through the leader's handler into a
// recorder and returns the reply and the handler's time.
func (e *env) serveRecorded(method, path, body string) (*httptest.ResponseRecorder, time.Duration) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	return rec, timeIt(func() { e.leader.Handler().ServeHTTP(rec, req) })
}

// probeServer times the leader's handler on a result-cache hit and on a
// request no cache holds, and the same hit over the loopback listener; the
// difference is what HTTP transport adds.
func (e *env) probeServer() error {
	n := 200
	if e.paperScale() {
		n = 50
	}
	if rec, _ := e.serveRecorded(http.MethodPost, "/sql", hitSQL); rec.Code != http.StatusOK {
		return fmt.Errorf("POST /sql (Table 2): status %d", rec.Code)
	}
	var hit, miss, loop []float64
	for i := 0; i < n; i++ {
		rec, d := e.serveRecorded(http.MethodPost, "/sql", hitSQL)
		e.check(rec.Code == http.StatusOK && bytes.Contains(rec.Body.Bytes(), []byte(`"cached":true`)), "Table 2 query missed the result cache")
		hit = append(hit, us(d))
	}
	asns, err := e.asnList()
	if err != nil {
		return err
	}
	for i := 0; i < n && i < len(asns); i++ {
		rec, d := e.serveRecorded(http.MethodPost, "/sql", fmt.Sprintf(missSQL, asns[i]))
		e.check(rec.Code == http.StatusOK && bytes.Contains(rec.Body.Bytes(), []byte(`"cached":false`)), "AS%d lookup hit a cache", asns[i])
		miss = append(miss, us(d))
	}
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	req := &request{method: http.MethodPost, path: "/sql", body: hitSQL}
	for i := 0; i < n; i++ {
		var status int
		var err error
		d := timeIt(func() { status, _, err = do(client, e.ts.URL, req) })
		e.check(err == nil && status == http.StatusOK, "loopback Table 2 query: status %d, %v", status, err)
		loop = append(loop, us(d))
	}
	e.metrics["server.handler_hit_us"] = median(hit)
	e.metrics["server.handler_miss_us"] = median(miss)
	e.metrics["http.loopback_us"] = median(loop) - median(hit)
	return nil
}

// probeReldb times the SQL engine's phases directly: fingerprinting,
// preparing and executing the point lookup, and counts the rows the
// /footprint statements examine per row they return, from EXPLAIN ANALYZE.
func (e *env) probeReldb() error {
	asns, err := e.asnList()
	if err != nil {
		return err
	}
	rand.New(rand.NewSource(e.o.seed)).Shuffle(len(asns), func(i, j int) { asns[i], asns[j] = asns[j], asns[i] })
	if len(asns) > 200 {
		asns = asns[:200]
	}
	var fp, prep, exec []float64
	for _, asn := range asns {
		sql := fmt.Sprintf(pointSQL, asn)
		fp = append(fp, us(timeIt(func() { reldb.Fingerprint(sql) })))
		var st *reldb.Stmt
		prep = append(prep, us(timeIt(func() { st, err = e.ref.Rel.Prepare(sql) })))
		if err != nil {
			return err
		}
		exec = append(exec, us(timeIt(func() { _, err = st.Query() })))
		if err != nil {
			return err
		}
	}
	e.metrics["reldb.fingerprint_us"] = median(fp)
	e.metrics["reldb.prepare_us"] = median(prep)
	e.metrics["reldb.exec_us"] = median(exec)

	scanned, returned := 0, 0
	for _, asn := range asns[:min(20, len(asns))] {
		for _, q := range footprintSQL {
			plan, err := e.ref.Rel.Explain(fmt.Sprintf(q, asn), true)
			if err != nil {
				return err
			}
			plan.Walk(func(n *reldb.PlanNode, _ int) {
				if n.Op == reldb.OpScan && n.Actual != nil {
					scanned += n.Actual.RowsOut
				}
			})
			if plan.Actual != nil {
				returned += plan.Actual.RowsOut
			}
		}
	}
	if returned > 0 {
		e.metrics["reldb.rows_examined_per_row"] = float64(scanned) / float64(returned)
	}
	return nil
}

// probeRender times exporting every GIS layer as GeoJSON.
func (e *env) probeRender() {
	var times []float64
	deadline := time.Now().Add(time.Second)
	for len(times) == 0 || (len(times) < 20 && time.Now().Before(deadline)) {
		var failed error
		times = append(times, us(timeIt(func() {
			for _, layer := range render.Layers() {
				if _, err := render.WriteLayerGeoJSON(io.Discard, e.ref.Rel, layer); err != nil {
					failed = err
				}
			}
		})))
		e.check(failed == nil, "export: %v", failed)
	}
	e.metrics["render.export_us"] = median(times)
}

// probeSimulate times building a what-if engine, evaluating one scenario
// of each kind alone, and one batch at 1 worker and at nproc workers,
// whose results must agree.
func (e *env) probeSimulate() error {
	var eng *simulate.Engine
	var err error
	e.metrics["simulate.new_engine_ms"] = ms(timeIt(func() {
		eng, err = simulate.NewEngine(e.ref, simulate.Options{Seed: e.o.seed})
	}))
	if err != nil {
		return err
	}
	perKind, batchLen := 3, 16
	if e.paperScale() {
		perKind, batchLen = 1, 4
	}
	batch := eng.Generate(64)
	byKind := make(map[string][]float64)
	for _, s := range batch {
		if len(byKind[s.Kind]) < perKind {
			byKind[s.Kind] = append(byKind[s.Kind], ms(timeIt(func() { eng.Run([]simulate.Scenario{s}, 1) })))
		}
	}
	for kind, xs := range byKind {
		e.metrics["simulate."+kind+"_ms"] = median(xs)
	}
	var one, many []simulate.Result
	t1 := timeIt(func() { one = eng.Run(batch[:batchLen], 1) })
	tn := timeIt(func() { many = eng.Run(batch[:batchLen], runtime.NumCPU()) })
	e.check(reflect.DeepEqual(one, many), "simulate batch differs between 1 and %d workers", runtime.NumCPU())
	e.metrics["simulate.parallel_speedup"] = t1.Seconds() / tn.Seconds()
	return nil
}
