package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"igdb/internal/core"
	"igdb/internal/ingest"
	"igdb/internal/reldb"
	"igdb/internal/replicate"
	"igdb/internal/server"
	"igdb/internal/worldgen"
)

// collectedAt is the acquisition time stamped on every collected snapshot,
// fixed so that every run collects the same sources.
var collectedAt = time.Unix(1780000000, 0).UTC()

// quiet discards server logs: they would interleave with the result.
func quiet(string, ...interface{}) {}

// buildSampleTime is how long each of a small-scale workload's sampling
// rounds spends on builds, and then on follower syncs.
const buildSampleTime = time.Second

// timingRelations hold wall-clock timings, so their contents differ from
// build to build; content checks skip them.
var timingRelations = map[string]bool{"build_trace": true, "source_status": true}

// env is one run of one workload: the world at the workload's scale, the
// leader server that serves it, and the run's checks and measurements.
type env struct {
	o   options
	cfg worldgen.Config

	store  *ingest.Store
	leader *server.Server
	ts     *httptest.Server // loopback listener in front of leader
	// manifest is the leader's replication manifest: its relation chunk
	// hashes are the reference every build and replica is checked against.
	manifest *replicate.Manifest
	// ref is an untraced build of store: the reference for direct reldb
	// checks and the database the per-layer probes run on.
	ref       *core.IGDB
	refHashes map[string]string // content hashes of the run's first build

	builds, syncs []float64 // build_s and replica_sync_s samples, in s

	metrics    map[string]float64
	samples    map[string]int
	attempted  int
	failed     int
	selfChecks []string // failed workload self-checks
}

func newEnv(o options) (*env, error) {
	cfg, err := worldConfig(o.scale)
	if err != nil {
		return nil, err
	}
	return &env{
		o:       o,
		cfg:     cfg,
		metrics: make(map[string]float64),
		samples: make(map[string]int),
	}, nil
}

// worldConfig sizes the synthetic world. paper is the Table 1 scale; small
// is the repository's test scale; tiny is small with fewer cities and
// measurement targets, for the benchmark's own smoke test. tiny keeps
// small's 3,000 ASNs so serve-lookup's key space still dwarfs the caches.
// Every scale keeps worldgen's own seed, so each run of a workload builds
// and serves the same database: which world a seed drew would otherwise
// move build and request costs from run to run by a third of the bounds
// or more.
func worldConfig(scale string) (worldgen.Config, error) {
	switch scale {
	case "paper":
		return worldgen.DefaultConfig(), nil
	case "small":
		return worldgen.SmallConfig(), nil
	case "tiny":
		cfg := worldgen.SmallConfig()
		cfg.NumCities = 300
		cfg.NumISPs = 150
		cfg.NumAtlasNetworks = 80
		cfg.NumAnchors = 40
		cfg.TraceroutePairs = 150
		return cfg, nil
	}
	return worldgen.Config{}, fmt.Errorf("unknown scale %q (have tiny, small, paper)", scale)
}

// close stops the loopback listener; the servers themselves hold no
// goroutines of their own.
func (e *env) close() {
	if e.ts != nil {
		e.ts.Close()
		e.ts = nil
	}
}

// check counts one checked operation and records whether it failed.
func (e *env) check(ok bool, format string, args ...interface{}) bool {
	e.attempted++
	if !ok {
		e.failed++
		if e.failed <= 20 {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
		}
	}
	return ok
}

// selfCheck records a workload self-check: a run whose workload stopped
// exercising the layer it was chosen for reports itself incorrect.
func (e *env) selfCheck(ok bool, format string, args ...interface{}) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		e.selfChecks = append(e.selfChecks, msg)
		fmt.Fprintln(os.Stderr, "perfbench: self-check failed:", msg)
	}
}

// setUp makes the workload's world and starts serving it:
// generate the world, collect every source, build a leader server behind a
// loopback listener, and sync a first follower from it. extra runs the
// workload's own set-up steps, which count toward setup_s as well. The
// whole set-up runs reps times; setup_s is the median and the last one is
// kept. heap_mb is the live heap after the last set-up and a forced GC.
func (e *env) setUp(reps int, extra func() error) error {
	var total, gen, col []float64
	for r := 0; r < reps; r++ {
		e.close()
		e.store, e.leader, e.ref = nil, nil, nil
		runtime.GC()
		t0 := time.Now()
		var w *worldgen.World
		gen = append(gen, timeIt(func() { w = worldgen.Generate(e.cfg) }).Seconds())
		store := ingest.NewStore("")
		var err error
		col = append(col, timeIt(func() { err = ingest.Collect(w, store, collectedAt) }).Seconds())
		w = nil
		if err != nil {
			return fmt.Errorf("collect: %w", err)
		}
		leader, err := server.New(server.Config{Store: store, Leader: true, Logf: quiet})
		if err != nil {
			return err
		}
		e.store, e.leader = store, leader
		e.ts = httptest.NewServer(leader.Handler())
		if _, _, err := e.syncFollower(); err != nil {
			return err
		}
		if extra != nil {
			if err := extra(); err != nil {
				return err
			}
		}
		total = append(total, time.Since(t0).Seconds())
	}
	e.metrics["setup_s"] = median(total)
	e.metrics["worldgen.generate_s"] = median(gen)
	e.metrics["ingest.collect_s"] = median(col)
	e.samples["setup"] = reps
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	e.metrics["heap_mb"] = float64(m.HeapAlloc) / 1e6
	return e.fetchManifest()
}

// fetchManifest reads the leader's replication manifest.
func (e *env) fetchManifest() error {
	f := &replicate.Fetcher{LeaderURL: e.ts.URL, Client: e.ts.Client()}
	m, err := f.Manifest(context.Background())
	if err != nil {
		return fmt.Errorf("leader manifest: %w", err)
	}
	e.manifest = m
	return nil
}

// syncFollower starts a follower of the leader. It returns once server.New
// has fetched, verified and installed the leader's snapshot, with the time
// that took.
func (e *env) syncFollower() (*server.Server, time.Duration, error) {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	t0 := time.Now()
	f, err := server.New(server.Config{
		LeaderURL:     e.ts.URL,
		ReplicaClient: &http.Client{Transport: tr, Timeout: 2 * time.Minute},
		Logf:          quiet,
	})
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	if f.SnapshotSeq() == 0 {
		return nil, d, fmt.Errorf("follower did not sync from %s", e.ts.URL)
	}
	return f, d, nil
}

// checkFollower checks that a follower serves the leader's snapshot: the
// same sequence number and, per relation, the row count the manifest
// names. (server.New has already checked every chunk's SHA-256.)
func (e *env) checkFollower(f *server.Server) {
	if !e.check(f.SnapshotSeq() == e.manifest.Seq, "follower serves seq %d, leader %d", f.SnapshotSeq(), e.manifest.Seq) {
		return
	}
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/tables", nil))
	var body struct {
		Tables []struct {
			Name string `json:"name"`
			Rows int    `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		e.check(false, "follower /tables: %v", err)
		return
	}
	rows := make(map[string]int, len(body.Tables))
	for _, t := range body.Tables {
		rows[t.Name] = t.Rows
	}
	ok := true
	for _, c := range e.manifest.Chunks {
		if c.Kind == replicate.KindRelation && rows[c.Name] != c.Rows {
			ok = false
		}
	}
	e.check(ok, "follower row counts differ from the leader's manifest")
}

// hashRelation is a relation's content hash: the SHA-256 of its codec
// encoding, the same address the leader's manifest gives its chunk.
func hashRelation(db *reldb.DB, name string) string {
	return replicate.HashChunk(reldb.EncodeTable(db.Table(name)))
}

// contentHashes hashes every relation except the timing-bearing ones.
func contentHashes(db *reldb.DB) map[string]string {
	out := make(map[string]string)
	for _, name := range db.TableNames() {
		if !timingRelations[name] {
			out[name] = hashRelation(db, name)
		}
	}
	return out
}

// checkBuild checks a build's relation contents: the run's first build
// against the leader's manifest, every later one against the first.
func (e *env) checkBuild(g *core.IGDB) {
	h := contentHashes(g.Rel)
	if e.refHashes == nil {
		want := make(map[string]string)
		for _, c := range e.manifest.Chunks {
			if c.Kind == replicate.KindRelation && !timingRelations[c.Name] {
				want[c.Name] = c.SHA256
			}
		}
		e.refHashes = h
		e.check(maps.Equal(h, want), "build relations differ from the leader's snapshot")
		return
	}
	e.check(maps.Equal(h, e.refHashes), "build relations differ from the run's first build")
}

// checkReplica fetches the leader's snapshot the way a follower does,
// rebuilds the serving structures from it, and checks that every relation
// re-encodes to the hash in the leader's manifest: a replica holds exactly
// the leader's relations. It records the fetch and reconstruction times.
func (e *env) checkReplica(reps int) error {
	var fetch, fromRel []float64
	for r := 0; r < reps; r++ {
		f := &replicate.Fetcher{LeaderURL: e.ts.URL, Client: e.ts.Client()}
		ctx := context.Background()
		var p *replicate.Payload
		var err error
		d := timeIt(func() {
			var m *replicate.Manifest
			if m, err = f.Manifest(ctx); err == nil {
				p, err = f.Fetch(ctx, m)
			}
		})
		if err != nil {
			return fmt.Errorf("replica fetch: %w", err)
		}
		fetch = append(fetch, ms(d))
		fromRel = append(fromRel, ms(timeIt(func() { _, err = core.FromRelations(p.DB, p.Manifest.AsOf) })))
		if err != nil {
			return err
		}
		ok := true
		for _, c := range p.Manifest.Chunks {
			if c.Kind == replicate.KindRelation {
				ok = ok && hashRelation(p.DB, c.Name) == c.SHA256
			}
		}
		e.check(ok, "replicated relations differ from the leader's")
	}
	e.metrics["replicate.fetch_ms"] = median(fetch)
	e.metrics["core.from_relations_ms"] = median(fromRel)
	return nil
}

// settle collects garbage before a timed build or sync, so the op does not
// pay for collecting what earlier ops left (a discarded build or follower
// holds a whole snapshot), as it would not in a process of its own.
func settle() { runtime.GC() }

// untracedBuild runs one build with span recording off.
func (e *env) untracedBuild() (*core.IGDB, time.Duration, error) {
	t0 := time.Now()
	g, err := core.Build(e.store, core.BuildOptions{SkipTrace: true})
	return g, time.Since(t0), err
}

// sampleBuildAndSync adds samples to build_s and replica_sync_s for
// serve-lookup, whose timed run does neither: untraced builds, then
// follower syncs, of the workload's own world, each checked, each kind for
// at least 3 samples and buildSampleTime. serve-lookup calls it before,
// between and after its phases, so the medians cover the whole run rather
// than one moment of it. The last build becomes ref.
func (e *env) sampleBuildAndSync() error {
	for deadline, n := time.Now().Add(buildSampleTime), 0; n < 3 || time.Now().Before(deadline); n++ {
		settle()
		g, d, err := e.untracedBuild()
		if err != nil {
			return err
		}
		e.builds = append(e.builds, d.Seconds())
		e.checkBuild(g)
		e.ref = g
	}
	for deadline, n := time.Now().Add(buildSampleTime), 0; n < 3 || time.Now().Before(deadline); n++ {
		settle()
		f, d, err := e.syncFollower()
		if !e.check(err == nil, "follower sync: %v", err) {
			continue
		}
		e.syncs = append(e.syncs, d.Seconds())
		e.checkFollower(f)
	}
	e.metrics["build_s"] = median(e.builds)
	e.metrics["replica_sync_s"] = median(e.syncs)
	e.samples["builds"] = len(e.builds)
	e.samples["syncs"] = len(e.syncs)
	return nil
}
