package digraph

import "testing"

func TestSCC(t *testing.T) {
	// 0 -> 1 -> 2 -> 0 is one component; 3 has a self-loop; 3 -> 0 and
	// 4 -> 3 cross components; 5 is isolated.
	adj := [][]int{{1}, {2}, {0}, {3, 0}, {3}, nil}
	comp := SCC(adj)
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Errorf("0, 1, 2 must share a component: %v", comp)
	}
	seen := map[int]bool{}
	for _, v := range []int{0, 3, 4, 5} {
		if seen[comp[v]] {
			t.Errorf("node %d shares a component it should not: %v", v, comp)
		}
		seen[comp[v]] = true
	}
	// A component completes after every component it reaches.
	for v, succ := range adj {
		for _, w := range succ {
			if comp[v] < comp[w] {
				t.Errorf("edge %d -> %d: id %d below the reached id %d", v, w, comp[v], comp[w])
			}
		}
	}
	if got := SCC(nil); len(got) != 0 {
		t.Errorf("empty graph: %v", got)
	}
}
