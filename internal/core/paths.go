package core

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"igdb/internal/geo"
	"igdb/internal/graph"
	"igdb/internal/ingest"
	"igdb/internal/reldb"
	"igdb/internal/sources/naturalearth"
	"igdb/internal/wkt"
)

// RowNetwork is the transportation right-of-way graph: one node per
// standard city, one edge per road/rail segment with its real geometry.
// iGDB routes every Internet-Atlas adjacency along this network to
// approximate the conduit path (§3.1, after Durairajan et al.'s
// rights-of-way observation).
type RowNetwork struct {
	G     *graph.Graph
	geoms map[[2]int][]geo.Point // normalized city pair -> geometry A→B
	kinds map[[2]int]string
}

// edgeKey normalizes an undirected city pair.
func edgeKey(a, b int) [2]int {
	if a > b {
		return [2]int{b, a}
	}
	return [2]int{a, b}
}

// Geometry returns the stored geometry for the edge a-b oriented from a to
// b, and whether the edge exists.
func (rn *RowNetwork) Geometry(a, b int) ([]geo.Point, bool) {
	g, ok := rn.geoms[edgeKey(a, b)]
	if !ok {
		return nil, false
	}
	if a > b {
		// Stored low→high; reverse for the requested direction.
		rev := make([]geo.Point, len(g))
		for i, p := range g {
			rev[len(g)-1-i] = p
		}
		return rev, true
	}
	return g, true
}

// Kind returns the right-of-way type ("road"/"rail") of edge a-b.
func (rn *RowNetwork) Kind(a, b int) string { return rn.kinds[edgeKey(a, b)] }

// Route returns the shortest right-of-way route between two cities as a
// concatenated geometry with its length in km.
func (rn *RowNetwork) Route(a, b int) ([]geo.Point, float64, bool) {
	nodes, km, ok := rn.G.ShortestPath(a, b)
	if !ok {
		return nil, 0, false
	}
	return rn.concat(nodes), km, true
}

func (rn *RowNetwork) concat(nodes []int) []geo.Point {
	var out []geo.Point
	for i := 1; i < len(nodes); i++ {
		seg, ok := rn.Geometry(nodes[i-1], nodes[i])
		if !ok {
			continue
		}
		if len(out) > 0 {
			seg = seg[1:] // avoid duplicating the shared vertex
		}
		out = append(out, seg...)
	}
	return out
}

// loadRightOfWay builds the RowNetwork from the Natural Earth road/rail
// layers: each segment endpoint snaps to its standard city.
//
// mutates: pre-publish only
func (g *IGDB) loadRightOfWay(store ingest.Reader, opts BuildOptions) error {
	snap, err := store.Latest("naturalearth", opts.AsOf)
	if err != nil {
		return err
	}
	_, roads, err := naturalearth.Parse(&naturalearth.Dataset{
		PlacesCSV: snap.Files["places.csv"],
		RoadsCSV:  snap.Files["roads.csv"],
	})
	if err != nil {
		return err
	}
	sp := g.span.Start("right_of_way")
	defer sp.End()
	rn := &RowNetwork{
		G:     graph.New(len(g.Cities)),
		geoms: make(map[[2]int][]geo.Point),
		kinds: make(map[[2]int]string),
	}
	for _, rd := range roads {
		if len(rd.Path) < 2 {
			continue
		}
		a := g.Standardize(rd.Path[0])
		b := g.Standardize(rd.Path[len(rd.Path)-1])
		if a < 0 || b < 0 || a == b {
			continue
		}
		key := edgeKey(a, b)
		if _, dup := rn.geoms[key]; dup {
			continue
		}
		geom := rd.Path
		if a > b {
			geom = make([]geo.Point, len(rd.Path))
			for i, p := range rd.Path {
				geom[len(rd.Path)-1-i] = p
			}
		}
		rn.geoms[key] = geom
		rn.kinds[key] = rd.Kind
		w := rd.LengthKm
		if w <= 0 {
			w = geo.PathLengthKm(rd.Path)
		}
		rn.G.AddUndirected(a, b, w)
	}
	sp.SetAttr("edges", len(rn.geoms))
	g.Row = rn
	return nil
}

// inferStandardPaths routes every unique Atlas adjacency along the
// right-of-way network and stores the result in std_paths. Pairs are
// grouped by source city, and each source is one kernel search that routes
// all its destinations (routesFrom). Sources are routed on GOMAXPROCS
// workers, which claim them from an atomic index and fill the slot of each
// source they claim; the slots become rows in sorted-source order, so the
// rows are the same at any worker count.
func (g *IGDB) inferStandardPaths(opts BuildOptions) error {
	if g.Row == nil {
		// Degraded build with the right-of-way layer quarantined: no
		// network to route along, so no standard paths.
		return nil
	}
	adj := g.pendingAdjacencies
	if opts.MaxStandardPaths > 0 && len(adj) > opts.MaxStandardPaths {
		adj = adj[:opts.MaxStandardPaths]
	}
	bySrc := make(map[int][]int)
	for _, pair := range adj {
		bySrc[pair[0]] = append(bySrc[pair[0]], pair[1])
	}
	srcs := make([]int, 0, len(bySrc))
	for s := range bySrc {
		srcs = append(srcs, s)
	}
	sort.Ints(srcs)

	asOf := asOfText(g.AsOf)
	if g.AsOf.IsZero() {
		asOf = "latest"
	}
	slots := make([][]stdPath, len(srcs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(srcs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var search graph.Search
			for {
				i := int(next.Add(1)) - 1
				if i >= len(srcs) {
					return
				}
				slots[i] = g.Row.routesFrom(&search, srcs[i], bySrc[srcs[i]])
			}
		}()
	}
	wg.Wait()
	rows := make([][]reldb.Value, 0, len(adj))
	for i, src := range srcs {
		a := g.Cities[src]
		for _, p := range slots[i] {
			b := g.Cities[p.dst]
			rows = append(rows, []reldb.Value{
				reldb.Text(a.Name), reldb.Text(a.State), reldb.Text(a.Country),
				reldb.Text(b.Name), reldb.Text(b.State), reldb.Text(b.Country),
				reldb.Float(p.km), reldb.Text(p.wkt), reldb.Text(asOf),
			})
		}
	}
	return g.Rel.BulkInsert("std_paths", rows)
}

// stdPath is one routed adjacency of a source city: its destination, the
// route's length in km and its geometry as WKT.
type stdPath struct {
	dst int
	km  float64
	wkt string
}

// routesFrom routes src to each destination with one kernel search that
// stops once every destination is settled; each route is the one a search
// for that destination alone would find. Destinations without a land route
// (e.g. across an ocean) are left out; the rest keep the order of dsts.
func (rn *RowNetwork) routesFrom(search *graph.Search, src int, dsts []int) []stdPath {
	search.From(rn.G, src, dsts)
	var out []stdPath
	for _, dst := range dsts {
		nodes, km, ok := search.Path(dst)
		if !ok {
			continue
		}
		if geom := rn.concat(nodes); len(geom) >= 2 {
			out = append(out, stdPath{dst: dst, km: km, wkt: wkt.Marshal(wkt.NewLineString(geom))})
		}
	}
	return out
}

// PathNetwork is the graph of inferred physical paths: nodes are cities,
// edges are std_paths weighted by conduit length. The §4.2 "shortest
// practical physical path" is a shortest path on this network.
type PathNetwork struct {
	G     *graph.Graph
	geoms map[[2]int][]geo.Point
}

// buildPathNetwork assembles the network from the std_paths relation.
func (g *IGDB) buildPathNetwork() *PathNetwork {
	pn := &PathNetwork{
		G:     graph.New(len(g.Cities)),
		geoms: make(map[[2]int][]geo.Point),
	}
	rows := g.Rel.MustQuery(`SELECT from_metro, from_state, from_country,
		to_metro, to_state, to_country, distance_km, path_wkt FROM std_paths`)
	for _, r := range rows.Rows {
		fm, _ := r[0].AsText()
		fs, _ := r[1].AsText()
		fc, _ := r[2].AsText()
		tm, _ := r[3].AsText()
		ts, _ := r[4].AsText()
		tc, _ := r[5].AsText()
		km, _ := r[6].AsFloat()
		pathWKT, _ := r[7].AsText()
		a := g.CityIndex(fm, fs, fc)
		b := g.CityIndex(tm, ts, tc)
		if a < 0 || b < 0 || a == b {
			continue
		}
		key := edgeKey(a, b)
		if _, dup := pn.geoms[key]; dup {
			continue
		}
		geom, err := wkt.Parse(pathWKT)
		if err != nil || geom.Kind != wkt.KindLineString {
			continue
		}
		line := geom.Line
		if a > b {
			rev := make([]geo.Point, len(line))
			for i, p := range line {
				rev[len(line)-1-i] = p
			}
			line = rev
		}
		pn.geoms[key] = line
		pn.G.AddUndirected(a, b, km)
	}
	return pn
}

// Geometry returns the stored conduit geometry for edge a-b, oriented a→b.
func (pn *PathNetwork) Geometry(a, b int) ([]geo.Point, bool) {
	gm, ok := pn.geoms[edgeKey(a, b)]
	if !ok {
		return nil, false
	}
	if a > b {
		rev := make([]geo.Point, len(gm))
		for i, p := range gm {
			rev[len(gm)-1-i] = p
		}
		return rev, true
	}
	return gm, true
}

// HasEdge reports whether an inferred physical path connects a and b
// directly.
func (pn *PathNetwork) HasEdge(a, b int) bool {
	_, ok := pn.geoms[edgeKey(a, b)]
	return ok
}

// ShortestPracticalPath returns the geographically shortest route along
// inferred physical paths between two cities: the §4.2 baseline against
// which traceroute-derived paths are scored.
func (pn *PathNetwork) ShortestPracticalPath(a, b int) (cities []int, km float64, ok bool) {
	return pn.G.ShortestPath(a, b)
}

// RouteGeometry concatenates edge geometries along a city sequence.
func (pn *PathNetwork) RouteGeometry(cities []int) []geo.Point {
	var out []geo.Point
	for i := 1; i < len(cities); i++ {
		seg, ok := pn.Geometry(cities[i-1], cities[i])
		if !ok {
			continue
		}
		if len(out) > 0 {
			seg = seg[1:]
		}
		out = append(out, seg...)
	}
	return out
}

// KShortestRoutes returns up to k alternate city sequences between a and b
// along inferred paths (used by the hidden-node inference to consider
// parallel corridors like Tulsa vs Oklahoma City).
func (pn *PathNetwork) KShortestRoutes(a, b, k int) [][]int {
	var out [][]int
	for _, p := range pn.G.KShortest(a, b, k) {
		out = append(out, p.Nodes)
	}
	return out
}
