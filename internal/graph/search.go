package graph

import "math"

// item is a priority-queue element: a node and its key, the tentative
// distance plus the A* heuristic when one is given.
type item struct {
	node int
	key  float64
}

// minHeap is a binary min-heap of items. push and pop make exactly the
// comparisons and swaps of container/heap's Push and Pop, so items with
// equal keys come out in the same order, and every route iGDB stores keeps
// the tie-breaks it had when the heap was container/heap.
type minHeap []item

func (q *minHeap) push(it item) {
	h := append(*q, it)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !(h[j].key < h[i].key) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	*q = h
}

func (q *minHeap) pop() item {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && h[j+1].key < h[j].key {
			j++
		}
		if !(h[j].key < h[i].key) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// Search is the state of the shortest-path kernel: distances,
// predecessors, settled flags and the heap. It grows to the largest graph
// searched and is reused by every later search, so a worker routing many
// sources allocates once. A Search is not safe for concurrent use; give
// each goroutine its own. The zero value is ready to use.
type Search struct {
	src  int
	dist []float64
	prev []int
	done []bool
	want []bool
	q    minHeap
}

// From runs one search from src over g that stops once every node in dsts
// is settled, or once every reachable node is when dsts is empty. Path then
// answers for each of them.
func (s *Search) From(g *Graph, src int, dsts []int) { s.run(g, nil, src, dsts, nil) }

// Path returns the route the last search found from its source to dst and
// the route's weight. ok is false when dst is out of range or the search
// did not settle it (unreachable, or not among its destinations).
func (s *Search) Path(dst int) (path []int, weight float64, ok bool) {
	if dst < 0 || dst >= len(s.done) || !s.done[dst] {
		return nil, 0, false
	}
	return reconstruct(s.prev, s.src, dst), s.dist[dst], true
}

// run is the one Dijkstra loop in the package. It searches g from src,
// skipping the nodes and edges mask disables when mask is non-nil, and
// stops once every in-range node of dsts is settled (with no dsts, when the
// heap empties). With h non-nil it is A*: h(n) must be an admissible lower
// bound on the distance from n to the destination.
//
// The loop up to the moment a node is settled does not depend on dsts, so
// one search from a source settles each destination with the same
// predecessors as a search stopped at it alone: both give the same route.
//
// perf: hot path
func (s *Search) run(g *Graph, mask *View, src int, dsts []int, h func(int) float64) {
	n := g.Len()
	if cap(s.dist) < n {
		s.dist, s.prev = make([]float64, n), make([]int, n)
		s.done, s.want = make([]bool, n), make([]bool, n)
	}
	s.src, s.dist, s.prev, s.done, s.want = src, s.dist[:n], s.prev[:n], s.done[:n], s.want[:n]
	for i := range s.dist {
		s.dist[i], s.prev[i], s.done[i] = math.Inf(1), -1, false
	}
	if src < 0 || src >= n || (mask != nil && mask.nodeOff[src]) {
		return
	}
	left := 0
	for _, d := range dsts {
		if d >= 0 && d < n && !s.want[d] {
			s.want[d] = true
			left++
		}
	}
	if len(dsts) > 0 && left == 0 {
		return
	}
	s.dist[src] = 0
	key := 0.0
	if h != nil {
		key += h(src)
	}
	s.q = append(s.q[:0], item{node: src, key: key})
	for len(s.q) > 0 {
		u := s.q.pop().node
		if s.done[u] {
			continue
		}
		s.done[u] = true
		if s.want[u] {
			s.want[u] = false
			if left--; left == 0 {
				break
			}
		}
		for _, e := range g.adj[u] {
			if mask != nil && !mask.edgeEnabled(u, e.To) {
				continue
			}
			if nd := s.dist[u] + e.Weight; nd < s.dist[e.To] {
				s.dist[e.To], s.prev[e.To] = nd, u
				key := nd
				if h != nil {
					key += h(e.To)
				}
				s.q.push(item{node: e.To, key: key})
			}
		}
	}
	for _, d := range dsts {
		if d >= 0 && d < n {
			s.want[d] = false
		}
	}
}
