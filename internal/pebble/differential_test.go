package pebble

import (
	"math/rand"
	"reflect"
	"testing"
)

// twinGraphs builds the same random graph in the dense implementation
// and in the map oracle: 1–60 nodes with non-contiguous IDs, some of
// them isolated, edges repeated in both directions, self-loops, and
// endpoints that were never AddNode'd.
func twinGraphs(r *rand.Rand) (*Graph, *refGraph) {
	g, ref := NewGraph(), newRefGraph()
	n := 1 + r.Intn(60)
	ids := r.Perm(4 * n)[:n]
	for i := range ids {
		ids[i] = 7*ids[i] + 3 // gaps; chunk IDs are never negative
	}
	for _, id := range ids {
		if r.Intn(4) > 0 { // the rest exist only as edge endpoints, if at all
			g.AddNode(id)
			ref.AddNode(id)
		}
	}
	// Sparse forests, merge-cluster shapes and near-cliques.
	edges := r.Intn(1 + n*(1+r.Intn(4))/2)
	for e := 0; e < edges; e++ {
		x, y := ids[r.Intn(n)], ids[r.Intn(n)] // x == y is a self-loop
		for k := r.Intn(3); k >= 0; k-- {
			g.AddEdge(x, y)
			ref.AddEdge(x, y)
			x, y = y, x
		}
	}
	if g.NumNodes() == 0 {
		g.AddNode(ids[0])
		ref.AddNode(ids[0])
	}
	return g, ref
}

// TestPebbleMatchesOracle is the contract of the dense rewrite: on every
// graph it makes the decisions the map pebbler made — the same read
// order and peak, the same verdict on any schedule, the same bound.
func TestPebbleMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 2500; seed++ {
		r := rand.New(rand.NewSource(seed))
		g, ref := twinGraphs(r)
		if g.NumNodes() != ref.NumNodes() || !reflect.DeepEqual(g.Nodes(), ref.Nodes()) {
			t.Fatalf("seed %d: nodes %v, oracle %v", seed, g.Nodes(), ref.Nodes())
		}
		if !reflect.DeepEqual(g.Components(), ref.Components()) {
			t.Fatalf("seed %d: components differ", seed)
		}
		got, want := HeuristicPebble(g), refHeuristicPebble(ref)
		if !reflect.DeepEqual(got.Order, want.Order) || got.Peak != want.Peak {
			t.Fatalf("seed %d: schedule %v peak %d, oracle %v peak %d", seed, got.Order, got.Peak, want.Order, want.Peak)
		}
		if MaxDegreeBound(g) != refMaxDegreeBound(ref) {
			t.Fatalf("seed %d: MaxDegreeBound %d, oracle %d", seed, MaxDegreeBound(g), refMaxDegreeBound(ref))
		}
		shuffled := append([]int(nil), got.Order...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, order := range [][]int{got.Order, shuffled} {
			peak, err := VerifySchedule(g, order)
			refPeak, refErr := refVerifySchedule(ref, order)
			if err != nil || refErr != nil || peak != refPeak {
				t.Fatalf("seed %d: VerifySchedule(%v) = %d, %v; oracle %d, %v", seed, order, peak, err, refPeak, refErr)
			}
		}
		if peak, _ := VerifySchedule(g, got.Order); peak != got.Peak {
			t.Fatalf("seed %d: schedule claims peak %d, verifies at %d", seed, got.Peak, peak)
		}
	}
}

// TestPebbleMutateAfterQuery checks that the lazily built index follows
// later mutations.
func TestPebbleMutateAfterQuery(t *testing.T) {
	g := fig9()
	if g.NumNodes() != 7 || g.NumEdges() != 6 {
		t.Fatalf("fig9: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	g.AddEdge(7, 6)
	g.AddNode(2)
	if g.NumNodes() != 8 || g.NumEdges() != 7 || !g.HasEdge(6, 7) || g.Degree(2) != 0 {
		t.Fatalf("after mutation: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if s := HeuristicPebble(g); len(s.Order) != 8 {
		t.Fatalf("schedule covers %d of 8 nodes", len(s.Order))
	}
}

// TestVerifyGroups checks the labelled pass against per-group
// verification on the subgraphs: two disjoint stars, interleaved in the
// schedule, keep their own edge counts and peaks.
func TestVerifyGroups(t *testing.T) {
	g := NewGraph()
	for leaf := 1; leaf <= 3; leaf++ {
		g.AddEdge(0, leaf)     // group 0: star around 0
		g.AddEdge(10, 10+leaf) // group 1: star around 10
	}
	g.AddEdge(1, 2) // and a triangle 0-1-2 in group 0
	order := []int{1, 11, 0, 10, 2, 12, 3, 13}
	group := []int32{0, 0, 0, 0, 1, 1, 1, 1} // by node number: IDs ascending
	peak, stats, err := VerifyGroups(g, order, group, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []GroupStats{{Edges: 4, Peak: 3}, {Edges: 3, Peak: 2}}
	if !reflect.DeepEqual(stats, want) {
		t.Fatalf("group stats %v, want %v", stats, want)
	}
	if whole, _ := VerifySchedule(g, order); whole != peak {
		t.Fatalf("overall peak %d, VerifySchedule %d", peak, whole)
	}
	group[4] = 0 // node 10 mislabelled: its edges now cross groups
	if _, _, err := VerifyGroups(g, order, group, 2); err == nil {
		t.Fatal("an edge crossing groups should fail")
	}
}
