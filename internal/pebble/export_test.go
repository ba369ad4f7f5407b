package pebble

// OracleSchedule runs the map-based reference pebbler (oracle_test.go)
// on the graph with the given nodes and adjacency, for the plan-level
// differential tests in package pebble_test.
func OracleSchedule(nodes []int, neighbors map[int][]int) Schedule {
	ref := newRefGraph()
	for _, x := range nodes {
		ref.AddNode(x)
	}
	for x, nbs := range neighbors {
		for _, y := range nbs {
			ref.AddEdge(x, y)
		}
	}
	return refHeuristicPebble(ref)
}
