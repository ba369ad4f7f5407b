package pebble

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fig9 builds the merge dependency graph of the paper's Fig. 9:
// product p occupies chunks 1, 5, 9, 10 (merged into 1); q links 3–5;
// r links 7–10; s links 6–9.
func fig9() *Graph {
	g := NewGraph()
	g.AddEdge(1, 5)
	g.AddEdge(1, 9)
	g.AddEdge(1, 10)
	g.AddEdge(3, 5)
	g.AddEdge(7, 10)
	g.AddEdge(6, 9)
	return g
}

func TestGraphBasics(t *testing.T) {
	g := fig9()
	if g.NumNodes() != 7 {
		t.Fatalf("NumNodes = %d, want 7", g.NumNodes())
	}
	if g.Degree(1) != 3 || g.Degree(3) != 1 {
		t.Fatalf("degrees wrong: deg(1)=%d deg(3)=%d", g.Degree(1), g.Degree(3))
	}
	if !g.HasEdge(1, 5) || !g.HasEdge(5, 1) || g.HasEdge(3, 9) {
		t.Fatal("adjacency wrong")
	}
	if got := g.Neighbors(1); len(got) != 3 || got[0] != 5 || got[1] != 9 || got[2] != 10 {
		t.Fatalf("Neighbors(1) = %v", got)
	}
	// Self-loops ignored.
	g.AddEdge(1, 1)
	if g.HasEdge(1, 1) {
		t.Fatal("self-loop should be ignored")
	}
}

func TestCostMatchesPaper(t *testing.T) {
	// Paper §5.2: cost(1)=cost(3)=cost(6)=cost(7)=1,
	// cost(5)=cost(9)=cost(10)=0.
	g := fig9()
	want := map[int]int{1: 1, 3: 1, 6: 1, 7: 1, 5: 0, 9: 0, 10: 0}
	for x, w := range want {
		if got := g.cost(x); got != w {
			t.Errorf("cost(%d) = %d, want %d", x, got, w)
		}
	}
}

// TestFig9Pebbling checks the paper's worked example: the graph of
// Fig. 9 can be pebbled with three pebbles but no fewer, and the
// heuristic achieves that optimum starting from node 5.
func TestFig9Pebbling(t *testing.T) {
	g := fig9()
	opt, err := OptimalPeak(g)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 3 {
		t.Fatalf("optimal peak = %d, want 3 (paper: 'three pebbles but no fewer')", opt)
	}
	s := HeuristicPebble(g)
	if s.Peak != 3 {
		t.Fatalf("heuristic peak = %d, want 3", s.Peak)
	}
	if s.Order[0] != 5 {
		t.Fatalf("heuristic should start at min-cost node 5, started at %d", s.Order[0])
	}
	// The schedule must be legal and achieve its claimed peak.
	peak, err := VerifySchedule(g, s.Order)
	if err != nil {
		t.Fatal(err)
	}
	if peak != s.Peak {
		t.Fatalf("VerifySchedule peak %d != schedule peak %d", peak, s.Peak)
	}
}

// TestFig9WithoutNode7 checks the paper's remark: "Suppose node 7 was
// not part of the graph. Then we could pebble it with just two pebbles."
func TestFig9WithoutNode7(t *testing.T) {
	g := NewGraph()
	g.AddEdge(1, 5)
	g.AddEdge(1, 9)
	g.AddEdge(1, 10)
	g.AddEdge(3, 5)
	g.AddEdge(6, 9)
	opt, err := OptimalPeak(g)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 2 {
		t.Fatalf("optimal peak without node 7 = %d, want 2", opt)
	}
}

// TestStarGraph checks the paper's remark that a star with center x and
// n leaves can be pebbled with two pebbles, well below the max-degree
// bound.
func TestStarGraph(t *testing.T) {
	g := NewGraph()
	for leaf := 1; leaf <= 8; leaf++ {
		g.AddEdge(0, leaf)
	}
	opt, err := OptimalPeak(g)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 2 {
		t.Fatalf("star optimal peak = %d, want 2", opt)
	}
	s := HeuristicPebble(g)
	if s.Peak != 2 {
		t.Fatalf("heuristic peak on star = %d, want 2", s.Peak)
	}
	if MaxDegreeBound(g) != 9 {
		t.Fatalf("MaxDegreeBound = %d, want 9", MaxDegreeBound(g))
	}
}

func TestCliqueNeedsSize(t *testing.T) {
	// Paper: a clique of size k needs at least k pebbles.
	g := NewGraph()
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(i, j)
		}
	}
	opt, err := OptimalPeak(g)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 4 {
		t.Fatalf("K4 optimal peak = %d, want 4", opt)
	}
	if s := HeuristicPebble(g); s.Peak != 4 {
		t.Fatalf("heuristic on K4 = %d, want 4", s.Peak)
	}
}

func TestIsolatedNodesAndComponents(t *testing.T) {
	g := NewGraph()
	g.AddNode(100)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("Components = %v, want 3", comps)
	}
	s := HeuristicPebble(g)
	if len(s.Order) != 5 {
		t.Fatalf("schedule covers %d nodes, want 5", len(s.Order))
	}
	if s.Peak != 2 {
		t.Fatalf("peak = %d, want 2 (pairs need 2, isolated needs 1)", s.Peak)
	}
	if _, err := VerifySchedule(g, s.Order); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyScheduleErrors(t *testing.T) {
	g := NewGraph()
	g.AddEdge(1, 2)
	if _, err := VerifySchedule(g, []int{1, 1, 2}); err == nil {
		t.Fatal("double pebble should fail")
	}
	if _, err := VerifySchedule(g, []int{1}); err == nil {
		t.Fatal("incomplete schedule should fail")
	}
	if _, err := VerifySchedule(g, []int{1, 99}); err == nil {
		t.Fatal("unknown node should fail")
	}
}

func TestOptimalPeakTooLarge(t *testing.T) {
	g := NewGraph()
	for i := 0; i < maxOptimalNodes+1; i++ {
		g.AddNode(i)
	}
	if _, err := OptimalPeak(g); err == nil {
		t.Fatal("oversized exact search should fail")
	}
}

// randomGraph builds a random graph with n ≤ 10 nodes for exact
// verification.
func randomGraph(r *rand.Rand) *Graph {
	g := NewGraph()
	n := 2 + r.Intn(8)
	for i := 0; i < n; i++ {
		g.AddNode(i)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Intn(3) == 0 {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// Property: on random small graphs the heuristic produces a legal
// schedule whose peak lies between the optimum and the max-degree+1
// bound... except that the paper's bound applies per component; we check
// optimal ≤ heuristic ≤ nodes.
func TestQuickHeuristicBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r)
		s := HeuristicPebble(g)
		peak, err := VerifySchedule(g, s.Order)
		if err != nil || peak != s.Peak {
			return false
		}
		opt, err := OptimalPeak(g)
		if err != nil {
			return false
		}
		return opt <= s.Peak && s.Peak <= g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: the heuristic is near-optimal on small graphs (within a
// factor of 2 or +2 pebbles) — a regression guard on schedule quality.
func TestQuickHeuristicQuality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r)
		s := HeuristicPebble(g)
		opt, err := OptimalPeak(g)
		if err != nil {
			return false
		}
		return s.Peak <= 2*opt+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
