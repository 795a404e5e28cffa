package graph

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// oracleItem, oraclePQ and oraclePath are the container/heap Dijkstra loop
// the kernel replaced, kept as the reference for its tie-breaks: one search
// per destination that stops when dst is settled, with optional A*
// heuristic, blocked nodes and blocked (directed) arcs.
type oracleItem struct {
	node int
	dist float64
}

type oraclePQ []oracleItem

func (q oraclePQ) Len() int            { return len(q) }
func (q oraclePQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q oraclePQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *oraclePQ) Push(x interface{}) { *q = append(*q, x.(oracleItem)) }
func (q *oraclePQ) Pop() interface{} {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

func oraclePath(g *Graph, src, dst int, h func(int) float64, nodeOff map[int]bool, arcOff map[[2]int]bool) ([]int, float64, bool) {
	n := g.Len()
	dist, prev, done := make([]float64, n), make([]int, n), make([]bool, n)
	for i := range dist {
		dist[i], prev[i] = math.Inf(1), -1
	}
	push := func(q *oraclePQ, node int, d float64) {
		if h != nil {
			d += h(node)
		}
		heap.Push(q, oracleItem{node: node, dist: d})
	}
	dist[src] = 0
	q := &oraclePQ{}
	push(q, src, 0)
	for q.Len() > 0 {
		u := heap.Pop(q).(oracleItem).node
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			break
		}
		for _, e := range g.adj[u] {
			if nodeOff[e.To] || arcOff[[2]int{u, e.To}] {
				continue
			}
			if nd := dist[u] + e.Weight; nd < dist[e.To] {
				dist[e.To], prev[e.To] = nd, u
				push(q, e.To, nd)
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil, 0, false
	}
	return reconstruct(prev, src, dst), dist[dst], true
}

// tieGraph is a random graph whose weights are small integers, so equal
// distances, and so heap tie-breaks, are common. Most edges are undirected,
// as in every iGDB network; the rest are one-way arcs.
func tieGraph(r *rand.Rand, n, m int) *Graph {
	g := New(n)
	for i := 0; i < m; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		w := float64(1 + r.Intn(3))
		if r.Intn(4) == 0 {
			g.AddEdge(u, v, w)
		} else {
			g.AddUndirected(u, v, w)
		}
	}
	return g
}

func TestSearchMatchesPerDestinationOracle(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	var s Search // reused across graphs of different sizes
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(60)
		g := tieGraph(r, n, n*3)
		for src := 0; src < n; src++ {
			var dsts []int
			for d := 0; d < n; d++ {
				if r.Intn(3) == 0 {
					dsts = append(dsts, d)
				}
			}
			s.From(g, src, dsts)
			for _, dst := range dsts {
				want, wantW, wantOK := oraclePath(g, src, dst, nil, nil, nil)
				got, gotW, gotOK := s.Path(dst)
				if gotOK != wantOK || gotW != wantW || !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %d→%d: search %v/%v/%v, per-destination %v/%v/%v",
						trial, src, dst, got, gotW, gotOK, want, wantW, wantOK)
				}
				if p, w, ok := g.ShortestPath(src, dst); ok != wantOK || w != wantW || !reflect.DeepEqual(p, want) {
					t.Fatalf("trial %d %d→%d: ShortestPath %v/%v/%v, per-destination %v/%v/%v",
						trial, src, dst, p, w, ok, want, wantW, wantOK)
				}
			}
		}
	}
}

// The view's masked search must equal the oracle with the same nodes and
// both arcs of every masked edge blocked.
func TestViewMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 40; trial++ {
		n := 3 + r.Intn(40)
		g := tieGraph(r, n, n*3)
		v := NewView(g)
		nodeOff, arcOff := map[int]bool{}, map[[2]int]bool{}
		for i := 0; i < n/5; i++ {
			u := r.Intn(n)
			v.DisableNode(u)
			nodeOff[u] = true
		}
		for i := 0; i < n/3; i++ {
			a, b := r.Intn(n), r.Intn(n)
			v.DisableEdge(a, b)
			arcOff[[2]int{a, b}], arcOff[[2]int{b, a}] = true, true
		}
		for k := 0; k < 10; k++ {
			src, dst := r.Intn(n), r.Intn(n)
			if nodeOff[src] {
				continue
			}
			want, wantW, wantOK := oraclePath(g, src, dst, nil, nodeOff, arcOff)
			got, gotW, gotOK := v.ShortestPath(src, dst)
			if gotOK != wantOK || gotW != wantW || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %d→%d: view %v/%v/%v, oracle %v/%v/%v", trial, src, dst, got, gotW, gotOK, want, wantW, wantOK)
			}
		}
	}
}

// Yen's spur search masks whole edges where the loop it replaced blocked
// only the arcs leaving the spur node; the routes must not differ.
func TestSpurMaskMatchesDirectedBlocking(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		n := 3 + r.Intn(30)
		g := tieGraph(r, n, n*3)
		spur, dst := r.Intn(n), r.Intn(n)
		v := NewView(g)
		nodeOff, arcOff := map[int]bool{}, map[[2]int]bool{}
		for _, e := range g.Neighbors(spur) {
			if r.Intn(2) == 0 {
				v.DisableEdge(spur, e.To)
				arcOff[[2]int{spur, e.To}] = true
			}
		}
		for i := 0; i < n/4; i++ {
			if u := r.Intn(n); u != spur {
				v.DisableNode(u)
				nodeOff[u] = true
			}
		}
		want, wantW, wantOK := oraclePath(g, spur, dst, nil, nodeOff, arcOff)
		got, gotW, gotOK := v.ShortestPath(spur, dst)
		if gotOK != wantOK || gotW != wantW || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d %d→%d: masked %v/%v/%v, directed %v/%v/%v", trial, spur, dst, got, gotW, gotOK, want, wantW, wantOK)
		}
	}
}

func TestAStarMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	n := 40
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddUndirected(i, i+1, 1)
	}
	for i := 0; i < 60; i++ {
		if u, v := r.Intn(n), r.Intn(n); u != v {
			g.AddUndirected(u, v, math.Abs(float64(u-v))+float64(r.Intn(2)))
		}
	}
	for trial := 0; trial < 50; trial++ {
		src, dst := r.Intn(n), r.Intn(n)
		h := func(node int) float64 { return math.Abs(float64(node - dst)) }
		want, wantW, wantOK := oraclePath(g, src, dst, h, nil, nil)
		got, gotW, gotOK := g.ShortestPathWithHeuristic(src, dst, h)
		if gotOK != wantOK || gotW != wantW || !reflect.DeepEqual(got, want) {
			t.Fatalf("%d→%d: A* %v/%v/%v, oracle %v/%v/%v", src, dst, got, gotW, gotOK, want, wantW, wantOK)
		}
	}
}

// The typed heap must pop exactly what container/heap pops, ties included.
func TestMinHeapMatchesContainerHeap(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for script := 0; script < 200; script++ {
		var typed minHeap
		boxed := &oraclePQ{}
		node := 0
		for op := 0; op < 300; op++ {
			if len(typed) == 0 || r.Intn(3) > 0 {
				key := float64(r.Intn(5))
				typed.push(item{node: node, key: key})
				heap.Push(boxed, oracleItem{node: node, dist: key})
				node++
				continue
			}
			got, want := typed.pop(), heap.Pop(boxed).(oracleItem)
			if got.node != want.node || got.key != want.dist {
				t.Fatalf("script %d op %d: pop %v, container/heap %v", script, op, got, want)
			}
		}
	}
}

func TestShortestPathOutOfRange(t *testing.T) {
	g := diamond()
	zero := func(int) float64 { return 0 }
	for _, c := range []struct{ src, dst int }{{-1, 3}, {0, -1}, {4, 3}, {0, 4}, {0, 99}, {-5, -5}} {
		for name, route := range map[string]func() ([]int, float64, bool){
			"Graph": func() ([]int, float64, bool) { return g.ShortestPath(c.src, c.dst) },
			"View":  func() ([]int, float64, bool) { return NewView(g).ShortestPath(c.src, c.dst) },
			"AStar": func() ([]int, float64, bool) { return g.ShortestPathWithHeuristic(c.src, c.dst, zero) },
		} {
			if p, w, ok := route(); ok || p != nil || w != 0 {
				t.Errorf("%s %d→%d = %v/%v/%v, want no route", name, c.src, c.dst, p, w, ok)
			}
		}
	}
}

// A reused Search allocates nothing once it has grown to the graph.
func TestSearchReuseAllocatesNothing(t *testing.T) {
	g := tieGraph(rand.New(rand.NewSource(37)), 200, 800)
	dsts := []int{5, 50, 150, 199}
	var s Search
	s.From(g, 0, nil)
	if allocs := testing.AllocsPerRun(20, func() { s.From(g, 7, dsts) }); allocs != 0 {
		t.Fatalf("reused search allocated %v times per run", allocs)
	}
}

func BenchmarkSearchFrom(b *testing.B) {
	g := tieGraph(rand.New(rand.NewSource(41)), 5000, 15000)
	dsts := []int{10, 1000, 2500, 4999}
	var s Search
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.From(g, i%g.Len(), dsts)
	}
}
