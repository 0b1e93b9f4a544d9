// Package digraph holds the graph algorithm the classifiers share: strongly
// connected components of a directed graph over the nodes 0..n-1. The
// position graph (SWR), the P-node graph (WR) and the weak-acyclicity
// dependency graph each index their nodes by construction order and call
// SCC on the integer adjacency lists.
package digraph

// SCC returns a component id per node of the graph whose successor lists are
// adj (adj[v] lists the targets of v's edges). It is an iterative Tarjan:
// roots are tried in node order and successors in list order, and ids are
// numbered in the order components complete, so equal inputs give equal ids
// and a component's id is larger than the id of every component it reaches.
func SCC(adj [][]int) []int {
	n := len(adj)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	counter, compID := 0, 0
	type frame struct{ node, next int }
	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		frames := []frame{{node: start}}
		index[start], low[start] = counter, counter
		counter++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.next < len(adj[f.node]) {
				next := adj[f.node][f.next]
				f.next++
				if index[next] == -1 {
					index[next], low[next] = counter, counter
					counter++
					stack = append(stack, next)
					onStack[next] = true
					frames = append(frames, frame{node: next})
				} else if onStack[next] && index[next] < low[f.node] {
					low[f.node] = index[next]
				}
				continue
			}
			node := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].node
				if low[node] < low[parent] {
					low[parent] = low[node]
				}
			}
			if low[node] == index[node] {
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					comp[top] = compID
					if top == node {
						break
					}
				}
				compID++
			}
		}
	}
	return comp
}
