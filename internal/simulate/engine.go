package simulate

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"igdb/internal/core"
	"igdb/internal/geo"
	"igdb/internal/graph"
	"igdb/internal/obs"
	"igdb/internal/risk"
)

// pair is a normalized (a < b) sampled metro pair in failure-graph IDs.
type pair struct{ a, b int }

// rowSeg is one right-of-way segment together with the failure-graph edges
// of every inferred standard path routed over it: its shared-risk group.
type rowSeg struct {
	label string
	edges [][2]int
}

// Engine evaluates failure scenarios against one built database. The
// failure graph, baseline distances, and sampled pairs are computed once at
// construction and shared read-only by every worker; each worker owns a
// graph.View for masking. An Engine is safe for concurrent Run calls but
// Generate and Store are single-batch operations — call them from one
// goroutine.
type Engine struct {
	g      *core.IGDB
	seed   int64
	topN   int
	trace  *obs.Span
	logger *obs.Logger

	sim    *graph.Graph // failure graph over compact node IDs
	cityOf []int        // failure-graph node -> g.Cities index
	simOf  map[int]int  // g.Cities index -> failure-graph node

	edges    [][2]int // every unique undirected edge, sorted
	edgeGeom map[[2]int][]geo.Point

	cables     []string // cables with at least one landing-to-landing edge
	cableEdges map[string][][2]int

	ixpNodes []int // metro_down candidates (IXP-hosting, or all nodes)

	segs []rowSeg // segment_cut candidates

	kinds []string // enabled scenario kinds, canonical order

	pairs          []pair
	srcs           []int
	bySrc          map[int][]int // src node -> indexes into pairs
	baseDist       []float64     // aligned with pairs
	baseComponents int

	countryOf []string
	metroOf   []string
	asnsOf    [][]string // AS labels per node, sorted unique
}

// NewEngine prepares the failure graph, shared-risk groups, scenario
// candidate pools, and the seeded baseline pair sample.
func NewEngine(g *core.IGDB, opts Options) (*Engine, error) {
	e := &Engine{
		g:      g,
		seed:   opts.Seed,
		topN:   opts.TopN,
		logger: opts.Logger,
		simOf:  map[int]int{},
	}
	if e.seed == 0 {
		e.seed = 1
	}
	if e.topN <= 0 {
		e.topN = 10
	}
	pairsWanted := opts.Pairs
	if pairsWanted <= 0 {
		pairsWanted = 256
	}
	if opts.Trace != nil {
		e.trace = opts.Trace.Start("simulate")
	} else {
		e.trace = obs.StartTrace("simulate")
	}

	prep := e.trace.Start("prepare")
	if err := e.buildGraph(); err != nil {
		prep.End()
		return nil, err
	}
	e.buildSRLG()
	e.buildCandidates(opts.Kinds)
	err := e.sampleBaseline(pairsWanted)
	prep.SetAttr("nodes", e.sim.Len())
	prep.SetAttr("edges", len(e.edges))
	prep.SetAttr("pairs", len(e.pairs))
	prep.End()
	if err != nil {
		return nil, err
	}
	if e.logger != nil {
		e.logger.Info("simulate engine ready",
			obs.F("nodes", e.sim.Len()), obs.F("edges", len(e.edges)),
			obs.F("cables", len(e.cables)), obs.F("segments", len(e.segs)),
			obs.F("pairs", len(e.pairs)), obs.F("seed", e.seed))
	}
	return e, nil
}

// node interns a city index into the failure graph.
func (e *Engine) node(city int) int {
	if s, ok := e.simOf[city]; ok {
		return s
	}
	s := len(e.cityOf)
	e.simOf[city] = s
	e.cityOf = append(e.cityOf, city)
	return s
}

// buildGraph assembles the failure graph: the inferred path network plus
// submarine-cable edges between consecutive landing metros. Only cities
// incident to at least one edge become nodes, so component counts measure
// the connected fabric rather than isolated gazetteer entries.
func (e *Engine) buildGraph() error {
	sp := e.trace.Start("graph")
	defer sp.End()

	type arc struct {
		key [2]int
		w   float64
	}
	var arcs []arc
	e.edgeGeom = map[[2]int][]geo.Point{}
	addEdge := func(cityA, cityB int, w float64, geom []geo.Point) [2]int {
		a, b := e.node(cityA), e.node(cityB)
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if _, dup := e.edgeGeom[key]; !dup {
			e.edgeGeom[key] = geom
			arcs = append(arcs, arc{key: key, w: w})
		}
		return key
	}

	// Inferred terrestrial paths.
	pn := e.g.Paths
	for u := 0; u < pn.G.Len(); u++ {
		for _, ed := range pn.G.Neighbors(u) {
			if u >= ed.To {
				continue
			}
			geom, ok := pn.Geometry(u, ed.To)
			if !ok || len(geom) < 2 {
				geom = []geo.Point{e.g.CityLoc(u), e.g.CityLoc(ed.To)}
			}
			addEdge(u, ed.To, ed.Weight, geom)
		}
	}

	// Submarine cables: one edge per consecutive landing pair. The landing
	// sequence is the insertion order of land_points, which core writes per
	// cable in route order.
	rows, err := e.g.Rel.Query(`SELECT cable_id, cable_name FROM sub_cables`)
	if err != nil {
		return err
	}
	cableName := map[int64]string{}
	for _, r := range rows.Rows {
		id, _ := r[0].AsInt()
		name, _ := r[1].AsText()
		cableName[id] = name
	}
	rows, err = e.g.Rel.Query(`SELECT cable_id, city, state_province, country FROM land_points`)
	if err != nil {
		return err
	}
	e.cableEdges = map[string][][2]int{}
	prevCable := int64(-1)
	prevCity := -1
	for _, r := range rows.Rows {
		id, _ := r[0].AsInt()
		city, _ := r[1].AsText()
		state, _ := r[2].AsText()
		country, _ := r[3].AsText()
		ci := e.g.CityIndex(city, state, country)
		if id != prevCable {
			prevCable, prevCity = id, ci
			continue
		}
		if ci < 0 || prevCity < 0 || ci == prevCity {
			if ci >= 0 {
				prevCity = ci
			}
			continue
		}
		la, lb := e.g.CityLoc(prevCity), e.g.CityLoc(ci)
		key := addEdge(prevCity, ci, geo.Haversine(la, lb), []geo.Point{la, lb})
		name := cableName[id]
		if name == "" {
			name = fmt.Sprintf("cable-%d", id)
		}
		seen := false
		for _, k := range e.cableEdges[name] {
			if k == key {
				seen = true
				break
			}
		}
		if !seen {
			e.cableEdges[name] = append(e.cableEdges[name], key)
		}
		prevCity = ci
	}

	// Materialize the graph now that the node set is final.
	e.sim = graph.New(len(e.cityOf))
	for _, a := range arcs {
		e.sim.AddUndirected(a.key[0], a.key[1], a.w)
	}
	if len(arcs) == 0 {
		return fmt.Errorf("simulate: failure graph has no edges (no std_paths or cable landings)")
	}
	e.edges = make([][2]int, 0, len(e.edgeGeom))
	for k := range e.edgeGeom {
		e.edges = append(e.edges, k)
	}
	sort.Slice(e.edges, func(i, j int) bool {
		if e.edges[i][0] != e.edges[j][0] {
			return e.edges[i][0] < e.edges[j][0]
		}
		return e.edges[i][1] < e.edges[j][1]
	})

	// Per-node attribution metadata.
	e.countryOf = make([]string, len(e.cityOf))
	e.metroOf = make([]string, len(e.cityOf))
	for s, ci := range e.cityOf {
		e.countryOf[s] = e.g.Cities[ci].Country
		e.metroOf[s] = e.g.Cities[ci].Metro()
	}
	e.asnsOf = make([][]string, len(e.cityOf))
	rows, err = e.g.Rel.Query(`SELECT DISTINCT asn, metro, country FROM asn_loc`)
	if err != nil {
		return err
	}
	asnSets := make([]map[string]bool, len(e.cityOf))
	for _, r := range rows.Rows {
		m, _ := r[1].AsText()
		c, _ := r[2].AsText()
		ci := e.g.CityByName(m, "", c)
		if ci < 0 {
			continue
		}
		s, ok := e.simOf[ci]
		if !ok {
			continue
		}
		asn, _ := r[0].AsInt()
		if asnSets[s] == nil {
			asnSets[s] = map[string]bool{}
		}
		asnSets[s][fmt.Sprintf("AS%d", asn)] = true
	}
	for s, set := range asnSets {
		for name := range set {
			e.asnsOf[s] = append(e.asnsOf[s], name)
		}
		sort.Strings(e.asnsOf[s])
	}
	sp.SetAttr("cables", len(e.cableEdges))
	return nil
}

// buildSRLG recovers, for every inferred-path edge, the right-of-way
// segments its route rides, then inverts the mapping: each segment's
// shared-risk group is every path edge routed over it. Skipped on degraded
// builds without the right-of-way layer.
func (e *Engine) buildSRLG() {
	if e.g.Row == nil || e.g.Row.G == nil {
		return
	}
	sp := e.trace.Start("srlg")
	defer sp.End()
	// Group the path edges by their first city, so one kernel search per
	// city routes the whole group; each route is the one a search for that
	// edge alone would find.
	pn := e.g.Paths
	byCity := map[int][][2]int{}
	var cities []int
	for _, key := range e.edges {
		cityA, cityB := e.cityOf[key[0]], e.cityOf[key[1]]
		if !pn.HasEdge(cityA, cityB) {
			continue // cable edge: not routed over land rights-of-way
		}
		if byCity[cityA] == nil {
			cities = append(cities, cityA)
		}
		byCity[cityA] = append(byCity[cityA], key)
	}
	riders := map[[2]int]map[[2]int]bool{} // row segment (city IDs) -> sim edges
	var search graph.Search
	var dsts []int
	for _, cityA := range cities {
		dsts = dsts[:0]
		for _, key := range byCity[cityA] {
			dsts = append(dsts, e.cityOf[key[1]])
		}
		search.From(e.g.Row.G, cityA, dsts)
		for i, key := range byCity[cityA] {
			route, _, ok := search.Path(dsts[i])
			if !ok {
				continue
			}
			for j := 1; j < len(route); j++ {
				x, y := route[j-1], route[j]
				if x > y {
					x, y = y, x
				}
				seg := [2]int{x, y}
				if riders[seg] == nil {
					riders[seg] = map[[2]int]bool{}
				}
				riders[seg][key] = true
			}
		}
	}
	segKeys := make([][2]int, 0, len(riders))
	for k := range riders {
		segKeys = append(segKeys, k)
	}
	sort.Slice(segKeys, func(i, j int) bool {
		if segKeys[i][0] != segKeys[j][0] {
			return segKeys[i][0] < segKeys[j][0]
		}
		return segKeys[i][1] < segKeys[j][1]
	})
	for _, k := range segKeys {
		group := make([][2]int, 0, len(riders[k]))
		for ed := range riders[k] {
			group = append(group, ed)
		}
		sort.Slice(group, func(i, j int) bool {
			if group[i][0] != group[j][0] {
				return group[i][0] < group[j][0]
			}
			return group[i][1] < group[j][1]
		})
		e.segs = append(e.segs, rowSeg{
			label: e.g.Cities[k[0]].Metro() + "<->" + e.g.Cities[k[1]].Metro(),
			edges: group,
		})
	}
	sp.SetAttr("segments", len(e.segs))
}

// buildCandidates fixes the scenario-kind pools: sorted cable names, IXP
// metros present in the failure graph (every node when the IXP table
// resolves none), and the enabled kind list.
func (e *Engine) buildCandidates(want []string) {
	for name, eds := range e.cableEdges {
		if len(eds) > 0 {
			e.cables = append(e.cables, name)
		}
	}
	sort.Strings(e.cables)

	ixpSet := map[int]bool{}
	rows, err := e.g.Rel.Query(`SELECT metro, country FROM ixps`)
	if err == nil {
		for _, r := range rows.Rows {
			m, _ := r[0].AsText()
			c, _ := r[1].AsText()
			ci := e.g.CityByName(m, "", c)
			if ci < 0 {
				continue
			}
			if s, ok := e.simOf[ci]; ok {
				ixpSet[s] = true
			}
		}
	}
	for s := range ixpSet {
		e.ixpNodes = append(e.ixpNodes, s)
	}
	sort.Ints(e.ixpNodes)
	if len(e.ixpNodes) == 0 {
		e.ixpNodes = make([]int, len(e.cityOf))
		for i := range e.ixpNodes {
			e.ixpNodes[i] = i
		}
	}

	applicable := map[string]bool{
		KindCableCut:   len(e.cables) > 0,
		KindMetroDown:  len(e.ixpNodes) > 0,
		KindSegmentCut: len(e.segs) > 0,
		KindHazard:     len(e.cityOf) > 0,
	}
	wanted := map[string]bool{}
	for _, k := range want {
		wanted[k] = true
	}
	for _, k := range AllKinds {
		if applicable[k] && (len(want) == 0 || wanted[k]) {
			e.kinds = append(e.kinds, k)
		}
	}
}

// sampleBaseline records the pre-failure state: component count, a seeded
// sample of distinct reachable pairs from the largest component, and their
// baseline shortest-path distances (one Dijkstra per distinct source).
func (e *Engine) sampleBaseline(wanted int) error {
	sp := e.trace.Start("baseline")
	defer sp.End()
	if len(e.kinds) == 0 {
		return fmt.Errorf("simulate: no applicable scenario kinds")
	}
	labels, count := e.sim.Components()
	e.baseComponents = count
	sizes := make([]int, count)
	for _, l := range labels {
		if l >= 0 {
			sizes[l]++
		}
	}
	giant := 0
	for l, n := range sizes {
		if n > sizes[giant] {
			giant = l
		}
	}
	var cand []int
	for n, l := range labels {
		if l == giant {
			cand = append(cand, n)
		}
	}
	if len(cand) < 2 {
		return fmt.Errorf("simulate: largest component has %d nodes, need 2", len(cand))
	}
	if maxPairs := len(cand) * (len(cand) - 1) / 2; wanted > maxPairs {
		wanted = maxPairs
	}

	rng := rand.New(rand.NewSource(e.seed + 1000003))
	seen := map[pair]bool{}
	for attempts := 0; len(e.pairs) < wanted && attempts < 100*wanted+1000; attempts++ {
		a, b := cand[rng.Intn(len(cand))], cand[rng.Intn(len(cand))]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		p := pair{a, b}
		if seen[p] {
			continue
		}
		seen[p] = true
		e.pairs = append(e.pairs, p)
	}
	sort.Slice(e.pairs, func(i, j int) bool {
		if e.pairs[i].a != e.pairs[j].a {
			return e.pairs[i].a < e.pairs[j].a
		}
		return e.pairs[i].b < e.pairs[j].b
	})

	e.bySrc = map[int][]int{}
	for i, p := range e.pairs {
		e.bySrc[p.a] = append(e.bySrc[p.a], i)
	}
	for s := range e.bySrc {
		e.srcs = append(e.srcs, s)
	}
	sort.Ints(e.srcs)
	e.baseDist = make([]float64, len(e.pairs))
	for _, src := range e.srcs {
		dist := e.sim.AllShortestFrom(src)
		for _, pi := range e.bySrc[src] {
			e.baseDist[pi] = dist[e.pairs[pi].b]
		}
	}
	sp.SetAttr("components", count)
	sp.SetAttr("giant", len(cand))
	return nil
}

// Kinds returns the enabled scenario kinds in canonical order.
func (e *Engine) Kinds() []string { return append([]string(nil), e.kinds...) }

// Pairs returns the size of the baseline pair sample.
func (e *Engine) Pairs() int { return len(e.pairs) }

// Generate produces n scenarios from the engine's seeded stream. The i-th
// scenario of a given (database, seed) is always identical.
func (e *Engine) Generate(n int) []Scenario {
	sp := e.trace.Start("generate")
	defer sp.End()
	sp.SetAttr("scenarios", n)
	rng := rand.New(rand.NewSource(e.seed))
	out := make([]Scenario, 0, n)
	for i := 0; i < n; i++ {
		k := e.kinds[rng.Intn(len(e.kinds))]
		s := Scenario{ID: i + 1, Kind: k}
		switch k {
		case KindCableCut:
			name := e.cables[rng.Intn(len(e.cables))]
			s.Target = name
			s.Edges = e.cableEdges[name]
		case KindMetroDown:
			node := e.ixpNodes[rng.Intn(len(e.ixpNodes))]
			s.Target = e.metroOf[node]
			s.Nodes = []int{node}
		case KindSegmentCut:
			seg := e.segs[rng.Intn(len(e.segs))]
			s.Target = seg.label
			s.Edges = seg.edges
		case KindHazard:
			c := e.g.CityLoc(e.cityOf[rng.Intn(len(e.cityOf))])
			center := geo.Point{
				Lon: c.Lon + rng.Float64()*6 - 3,
				Lat: math.Max(-89, math.Min(89, c.Lat+rng.Float64()*6-3)),
			}
			radius := 150 + rng.Float64()*650
			s.Target = fmt.Sprintf("circle(%.3f,%.3f,%.0fkm)", center.Lon, center.Lat, radius)
			s.Hazard = &risk.Hazard{Name: s.Target, Center: center, RadiusKm: radius}
		}
		out = append(out, s)
	}
	return out
}

// Run evaluates scenarios across a worker pool. Workers claim indexes from
// a shared atomic counter and write results by index, so the output order
// (and content) is independent of scheduling. workers <= 0 means one per
// available CPU.
//
// perf: hot path
func (e *Engine) Run(scenarios []Scenario, workers int) []Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	if workers < 1 {
		workers = 1
	}
	sp := e.trace.Start("evaluate")
	sp.SetAttr("scenarios", len(scenarios))
	sp.SetAttr("workers", workers)
	defer sp.End()

	results := make([]Result, len(scenarios))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:ignore alloclint one goroutine closure per pool worker at startup, not per scenario
		go func() {
			defer wg.Done()
			view := graph.NewView(e.sim)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(scenarios) {
					return
				}
				results[i] = e.eval(scenarios[i], view)
			}
		}()
	}
	wg.Wait()
	return results
}

// resolveHazard maps a circular hazard onto the failure graph: nodes whose
// metro sits inside it, edges whose geometry crosses it.
func (e *Engine) resolveHazard(h *risk.Hazard) (nodes []int, edges [][2]int) {
	for s, ci := range e.cityOf {
		if h.Contains(e.g.CityLoc(ci)) {
			nodes = append(nodes, s)
		}
	}
	for _, k := range e.edges {
		if h.CrossesLine(e.edgeGeom[k]) {
			edges = append(edges, k)
		}
	}
	return nodes, edges
}

// eval measures one scenario on a masked view: component structure,
// reachability over the pair sample, inflation for survivors, and ranked
// AS/country/metro attributions for the lost pairs.
//
// perf: allocates intentionally — each scenario's Result (impact sets,
// attributions) is retained output; the masked view itself is reused.
func (e *Engine) eval(s Scenario, v *graph.View) Result {
	nodes, edges := s.Nodes, s.Edges
	if s.Hazard != nil {
		hn, he := e.resolveHazard(s.Hazard)
		nodes = append(append([]int(nil), nodes...), hn...)
		edges = append(append([][2]int(nil), edges...), he...)
	}
	v.Reset()
	nodeOff := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		if n >= 0 && n < e.sim.Len() && !nodeOff[n] {
			nodeOff[n] = true
			v.DisableNode(n)
		}
	}
	edgeOff := make(map[[2]int]bool, len(edges))
	for _, ed := range edges {
		a, b := ed[0], ed[1]
		if a > b {
			a, b = b, a
		}
		k := [2]int{a, b}
		if !edgeOff[k] {
			edgeOff[k] = true
			v.DisableEdge(a, b)
		}
	}

	res := Result{
		Scenario:       s,
		FailedNodes:    len(nodeOff),
		FailedEdges:    len(edgeOff),
		PairsTotal:     len(e.pairs),
		ComponentsBase: e.baseComponents,
	}
	_, res.Components = v.Components()

	asCount := map[string]int{}
	countryCount := map[string]int{}
	metroCount := map[string]int{}
	var sumInfl float64
	var survived int
	for _, src := range e.srcs {
		var dist []float64
		if !nodeOff[src] {
			dist = v.AllShortestFrom(src)
		}
		for _, pi := range e.bySrc[src] {
			p := e.pairs[pi]
			if !nodeOff[p.a] && !nodeOff[p.b] && dist != nil && !math.IsInf(dist[p.b], 1) {
				infl := 1.0
				if base := e.baseDist[pi]; base > 0 {
					infl = dist[p.b] / base
				}
				sumInfl += infl
				if infl > res.MaxInflation {
					res.MaxInflation = infl
				}
				survived++
				continue
			}
			res.PairsLost++
			metroCount[e.metroOf[p.a]]++
			metroCount[e.metroOf[p.b]]++
			countryCount[e.countryOf[p.a]]++
			if e.countryOf[p.b] != e.countryOf[p.a] {
				countryCount[e.countryOf[p.b]]++
			}
			for _, as := range e.asnsOf[p.a] {
				asCount[as]++
			}
			for _, as := range e.asnsOf[p.b] {
				if !containsStr(e.asnsOf[p.a], as) {
					asCount[as]++
				}
			}
		}
	}
	if res.PairsTotal > 0 {
		res.ReachabilityLoss = float64(res.PairsLost) / float64(res.PairsTotal)
	}
	if survived > 0 {
		res.MeanInflation = sumInfl / float64(survived)
	} else {
		res.MaxInflation = 0
	}
	res.ASImpacts = topImpacts(asCount, e.topN)
	res.CountryImpacts = topImpacts(countryCount, e.topN)
	res.MetroImpacts = topImpacts(metroCount, e.topN)
	return res
}

// containsStr reports membership in a small sorted slice; linear scan beats
// a map for the handful of ASes per metro.
func containsStr(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// topImpacts ranks a count map: most lost pairs first, ties by name, at
// most n entries, Rank starting at 1.
func topImpacts(counts map[string]int, n int) []Impact {
	if len(counts) == 0 {
		return nil
	}
	out := make([]Impact, 0, len(counts))
	for name, c := range counts {
		out = append(out, Impact{Name: name, LostPairs: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LostPairs != out[j].LostPairs {
			return out[i].LostPairs > out[j].LostPairs
		}
		return out[i].Name < out[j].Name
	})
	if len(out) > n {
		out = out[:n]
	}
	for i := range out {
		out[i].Rank = i + 1
	}
	return out
}
