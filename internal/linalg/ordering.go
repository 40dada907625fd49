package linalg

import "sort"

// MinDegree computes a minimum-degree fill-reducing ordering of the
// symmetric matrix s, returning perm with perm[new] = old. At each step
// the vertex of smallest current degree is eliminated and its neighbours
// are joined into a clique, simulating the fill of sparse Gaussian
// elimination.
//
// Minimum degree handles the hub topology of thermal networks — a
// handful of package nodes (spreader centre/periphery, sink) coupled to
// every bottom-layer cell — far better than profile orderings like RCM:
// hubs keep a high degree until the very end, so the sparse bulk of the
// grid is eliminated first and the dense-ish clique that remains is only
// a few nodes wide. This is the default ordering for FactorCholesky.
//
// The ordering is a pure function of s's sparsity pattern: each
// eliminated vertex's neighbours are visited in ascending order, and
// vertices of equal degree leave the heap in the order they entered it.
// Factorizations, and so every grid-mode solve, are therefore
// bitwise reproducible across calls and processes.
func MinDegree(s *Sparse) []int {
	n := s.N
	adj := make([]map[int]struct{}, n)
	for i := 0; i < n; i++ {
		adj[i] = make(map[int]struct{})
	}
	for i := 0; i < n; i++ {
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			if j := s.Col[k]; j != i {
				adj[i][j] = struct{}{}
				adj[j][i] = struct{}{}
			}
		}
	}

	// Lazy binary min-heap of (degree, vertex); stale entries are skipped
	// when their recorded degree no longer matches. Equal degrees pop in
	// push order (seq), so ties never depend on the heap's layout.
	type hnode struct{ deg, seq, v int }
	heap := make([]hnode, 0, 2*n)
	less := func(a, b hnode) bool { return a.deg < b.deg || (a.deg == b.deg && a.seq < b.seq) }
	seq := 0
	push := func(deg, v int) {
		heap = append(heap, hnode{deg, seq, v})
		seq++
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if !less(heap[i], heap[p]) {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() hnode {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < last && less(heap[l], heap[m]) {
				m = l
			}
			if r < last && less(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
		return top
	}

	for v := 0; v < n; v++ {
		push(len(adj[v]), v)
	}
	perm := make([]int, 0, n)
	eliminated := make([]bool, n)
	for len(perm) < n {
		h := pop()
		if eliminated[h.v] || h.deg != len(adj[h.v]) {
			continue // stale entry
		}
		v := h.v
		eliminated[v] = true
		perm = append(perm, v)
		nbrs := make([]int, 0, len(adj[v]))
		for u := range adj[v] {
			nbrs = append(nbrs, u)
		}
		sort.Ints(nbrs)
		for _, u := range nbrs {
			delete(adj[u], v)
		}
		for i, u := range nbrs {
			for _, w := range nbrs[i+1:] {
				if _, ok := adj[u][w]; !ok {
					adj[u][w] = struct{}{}
					adj[w][u] = struct{}{}
				}
			}
		}
		adj[v] = nil
		for _, u := range nbrs {
			push(len(adj[u]), u)
		}
	}
	return perm
}
