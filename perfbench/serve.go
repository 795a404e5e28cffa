package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"igdb/internal/reldb"
)

// serveClients is the number of closed-loop client connections: analysis
// scripts and the demo UI each wait for a reply before the next request.
const serveClients = 2

// Statements of the serve-lookup mix. Each request carries its own literal.
const (
	// pointSQL is the per-AS location lookup (one ASN per request).
	pointSQL = `SELECT metro, state_province, country FROM asn_loc WHERE asn = %d`
	// countriesSQL asks which countries one AS is present in.
	countriesSQL = `SELECT DISTINCT country FROM asn_loc WHERE asn = %d`
	// countrySQL is the paper's Table 2 country-presence join with a
	// per-request country filter.
	countrySQL = `SELECT l.asn, MIN(n.asn_name) AS name, MIN(o.organization) AS org,
	COUNT(DISTINCT l.country) AS countries
	FROM asn_loc l
	JOIN asn_name n ON n.asn = l.asn AND n.source = 'asrank'
	JOIN asn_org o ON o.asn = l.asn AND o.source = 'asrank'
	WHERE l.country = '%s'
	GROUP BY l.asn
	ORDER BY countries DESC, l.asn ASC
	LIMIT %d`
)

// countryLimits multiply serve-lookup's country join into enough distinct
// statements that the 256-entry caches cannot hold the mix. Each join costs
// tens of ms, so every further LIMIT adds seconds to the set-up that
// validates them.
var countryLimits = []int{10, 20, 30, 40}

// request is one distinct request of a serve mix. check validates a
// response against the same question answered directly by the reference
// build.
type request struct {
	method, path, body string
	check              func(status int, body []byte) error
	want               func() (int, error) // expected row count (POST /sql only)
}

func (r *request) newHTTP(base string) (*http.Request, error) {
	var body io.Reader
	if r.body != "" {
		body = strings.NewReader(r.body)
	}
	return http.NewRequest(r.method, base+r.path, body)
}

// runServeLookup is the serve-lookup workload: per-AS questions with a
// literal in every request, over a key space many times the caches, so
// nearly every request parses, plans and executes. Set-up validates every
// distinct request once (which also warms the caches); closed-loop clients
// then drive the mix for the run's length.
func runServeLookup(e *env) error {
	if err := e.setUp(3, nil); err != nil {
		return err
	}
	if err := e.checkReplica(3); err != nil {
		return err
	}
	if err := e.sampleBuildAndSync(); err != nil {
		return err
	}
	m, err := lookupMix(e)
	if err != nil {
		return err
	}
	e.validate(m)
	if err := e.sampleBuildAndSync(); err != nil {
		return err
	}

	dur := time.Duration(e.o.seconds * float64(time.Second))
	before, err := e.scrapeMetrics()
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	lat, at, elapsed := e.closedLoop(m, dur)
	runtime.ReadMemStats(&m1)
	after, err := e.scrapeMetrics()
	if err != nil {
		return err
	}

	// A cache no request looked up leaves its ratio unmeasured.
	ratio := func(metric, hits, misses string) {
		h := after[hits] - before[hits]
		if n := h + after[misses] - before[misses]; n > 0 {
			e.metrics[metric] = h / n
		}
	}
	ratio("server.result_cache_hit_ratio", "igdb_result_cache_hits_total", "igdb_result_cache_misses_total")
	ratio("server.plan_cache_hit_ratio", "igdb_plan_cache_hits_total", "igdb_plan_cache_misses_total")
	hit := e.metrics["server.result_cache_hit_ratio"]
	e.selfCheck(hit <= 0.1, "serve-lookup result-cache hit ratio %.3f > 0.1", hit)
	e.metrics["ops_per_s"] = float64(len(lat)) / elapsed.Seconds()
	e.metrics["p50_ms"] = windowedMedian(at, lat, time.Second)
	e.metrics["p99_ms"] = percentile(lat, 0.99)
	e.metrics["serve.alloc_kb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(len(lat))
	e.metrics["serve.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	e.samples["requests"] = len(lat)
	if err := e.sampleBuildAndSync(); err != nil {
		return err
	}

	if e.o.trace {
		if err := e.probeBuilds(3*time.Second, 4); err != nil {
			return err
		}
		return e.probeLayers()
	}
	return nil
}

// validate issues every distinct request of the mix once and checks each
// response against the reference build.
func (e *env) validate(mix []*request) {
	all := slices.Clone(mix)
	// A seeded order leaves a random slice of the mix in the caches, not
	// the last class validated.
	rand.New(rand.NewSource(e.o.seed)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	errs := make([]error, len(all))
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			for i := c; i < len(all); i += serveClients {
				status, body, err := do(client, e.ts.URL, all[i])
				if err == nil {
					err = all[i].check(status, body)
				}
				if err != nil {
					errs[i] = fmt.Errorf("%s %s: %w", all[i].method, all[i].path, err)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		e.check(err == nil, "validate: %v", err)
	}
	e.samples["validated"] = len(all)
}

// do sends one request and reads the whole reply.
func do(client *http.Client, base string, r *request) (int, []byte, error) {
	req, err := r.newHTTP(base)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// closedLoop drives the mix from serveClients clients, each on its own
// connection, each sending its next request when the last reply is read.
// It returns every client-observed latency in ms, when each request
// completed (as an offset from the start), and the run's wall time. A
// transport error or a non-2xx status fails the request.
func (e *env) closedLoop(mix []*request, dur time.Duration) ([]float64, []time.Duration, time.Duration) {
	out := make([][]float64, serveClients)
	ends := make([][]time.Duration, serveClients)
	fails := make([]int, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.o.seed*7919 + int64(c)))
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			for time.Now().Before(deadline) {
				r := mix[rng.Intn(len(mix))]
				t0 := time.Now()
				req, err := r.newHTTP(e.ts.URL)
				var resp *http.Response
				if err == nil {
					resp, err = client.Do(req)
				}
				ok := err == nil
				if ok {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					ok = err == nil && resp.StatusCode >= 200 && resp.StatusCode <= 299
				}
				t1 := time.Now()
				out[c] = append(out[c], ms(t1.Sub(t0)))
				ends[c] = append(ends[c], t1.Sub(start))
				if !ok {
					fails[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []float64
	var at []time.Duration
	for c := range out {
		all = append(all, out[c]...)
		at = append(at, ends[c]...)
		e.attempted += len(out[c]) - fails[c]
		for i := 0; i < fails[c]; i++ {
			e.check(false, "a timed request failed")
		}
	}
	return all, at, elapsed
}

// scrapeMetrics reads the leader's /metrics counters.
func (e *env) scrapeMetrics() (map[string]float64, error) {
	rec := httptest.NewRecorder()
	e.leader.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", rec.Code)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// directRows runs a statement straight through reldb and counts its rows,
// the way POST /sql would execute it.
func directRows(db *reldb.DB, sql string) (int, error) {
	st, err := db.Prepare(sql)
	if err != nil {
		return 0, err
	}
	if st.IsExplain() {
		plan, err := st.Explain()
		if err != nil {
			return 0, err
		}
		return plan.Rows().Len(), nil
	}
	rows, err := st.Query()
	if err != nil {
		return 0, err
	}
	return rows.Len(), nil
}

// sqlRequest is a POST /sql whose row count must match the same statement
// run directly through reldb on the reference build.
func (e *env) sqlRequest(sql string) *request {
	r := &request{method: http.MethodPost, path: "/sql", body: sql}
	r.want = func() (int, error) { return directRows(e.ref.Rel, sql) }
	r.check = func(status int, body []byte) error {
		want, err := r.want()
		if err != nil {
			return fmt.Errorf("reference: %v", err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("status %d", status)
		}
		var got struct {
			RowCount int `json:"row_count"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.RowCount != want {
			return fmt.Errorf("%d rows, reldb gives %d", got.RowCount, want)
		}
		return nil
	}
	return r
}

// asnList returns every ASN with a name, ascending.
func (e *env) asnList() ([]int, error) {
	rows, err := e.ref.Rel.Query(`SELECT DISTINCT asn FROM asn_name ORDER BY asn`)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, rows.Len())
	for _, r := range rows.Rows {
		if v, ok := r[0].AsInt(); ok {
			out = append(out, int(v))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("asn_name is empty")
	}
	return out, nil
}

// footprintSQL are the three statements GET /footprint/{asn} runs.
var footprintSQL = []string{
	`SELECT DISTINCT asn_name FROM asn_name WHERE asn = %d ORDER BY asn_name`,
	`SELECT DISTINCT organization FROM asn_org WHERE asn = %d ORDER BY organization`,
	`SELECT DISTINCT metro, state_province, country, remote FROM asn_loc
		 WHERE asn = %d ORDER BY country, metro`,
}

// lookupMix builds serve-lookup's distinct requests: /footprint/{asn} and
// two asn_loc point lookups over every named ASN, and the country join over
// every country and LIMIT. No traffic record weights these analyses against
// each other, so the clients draw every distinct request with equal
// chance.
func lookupMix(e *env) ([]*request, error) {
	asns, err := e.asnList()
	if err != nil {
		return nil, err
	}
	var foot, point []*request
	for _, asn := range asns {
		asn := asn
		point = append(point, e.sqlRequest(fmt.Sprintf(pointSQL, asn)), e.sqlRequest(fmt.Sprintf(countriesSQL, asn)))
		foot = append(foot, &request{method: http.MethodGet, path: "/footprint/" + strconv.Itoa(asn),
			check: func(status int, body []byte) error {
				// The handler lists non-empty names and organizations.
				var want [3]int
				for i, q := range footprintSQL {
					rows, err := e.ref.Rel.Query(fmt.Sprintf(q, asn))
					if err != nil {
						return fmt.Errorf("reference: %v", err)
					}
					for _, r := range rows.Rows {
						if t, ok := r[0].AsText(); i == 2 || (ok && t != "") {
							want[i]++
						}
					}
				}
				if status != http.StatusOK {
					return fmt.Errorf("status %d", status)
				}
				var got struct {
					Names  []string          `json:"names"`
					Orgs   []string          `json:"organizations"`
					Metros []json.RawMessage `json:"metros"`
				}
				if err := json.Unmarshal(body, &got); err != nil {
					return err
				}
				if len(got.Names) != want[0] || len(got.Orgs) != want[1] || len(got.Metros) != want[2] {
					return fmt.Errorf("footprint differs from reldb's %v", want)
				}
				return nil
			}})
	}
	rows, err := e.ref.Rel.Query(`SELECT DISTINCT country FROM asn_loc ORDER BY country`)
	if err != nil {
		return nil, err
	}
	var country []*request
	for _, r := range rows.Rows {
		cc, _ := r[0].AsText()
		// One direct run per country serves every LIMIT variant: a variant
		// must return min(LIMIT, groups) rows.
		var once sync.Once
		groups, groupsErr := 0, error(nil)
		for _, limit := range countryLimits {
			limit := limit
			req := e.sqlRequest(fmt.Sprintf(countrySQL, cc, limit))
			req.want = func() (int, error) {
				once.Do(func() {
					groups, groupsErr = directRows(e.ref.Rel, strings.Replace(fmt.Sprintf(countrySQL, cc, 1), "LIMIT 1", "", 1))
				})
				return min(limit, groups), groupsErr
			}
			country = append(country, req)
		}
	}
	return slices.Concat(foot, point, country), nil
}
