package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"whatifolap/internal/algebra"
	"whatifolap/internal/perspective"
	"whatifolap/internal/scenario"
	"whatifolap/internal/workload"
)

type opKind int

const (
	opQuery opKind = iota
	opCreate
	opEdit
	opFork
	opDiff
	opCommit
	opDiscard
)

// slot names the scenario an op addresses: none for catalog queries,
// the client's current session, or that session's fork.
type slot int

const (
	slotNone slot = iota
	slotCur
	slotFork
)

// op is one client request. Ops are generated from the seed alone; the
// server only ever sees the request they turn into.
type op struct {
	kind opKind
	slot slot
	// class labels ops of like cost, for reports and the verification
	// sample.
	class string
	query string
	edits []scenario.Edit
	// engine is the structured form of a query the engine evaluates,
	// which the traced pass needs to call the engine's layers one by
	// one. It is nil for a plain SELECT.
	engine *engineSpec
}

// engineSpec mirrors what mdx lowers a single what-if clause to:
// either a perspective query or a change relation.
type engineSpec struct {
	members      []string
	perspectives []int
	sem          perspective.Semantics
	mode         perspective.Mode
	changes      []algebra.Change
}

// String renders every generated field; the determinism test compares
// op sequences through it.
func (o op) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d/%s|%s|%v", o.kind, o.slot, o.class, o.query, o.edits)
	if e := o.engine; e != nil {
		fmt.Fprintf(&b, "|%v %v %v %v %v", e.members, e.perspectives, e.sem, e.mode, e.changes)
	}
	return b.String()
}

var semantics = []perspective.Semantics{
	perspective.Static, perspective.Forward, perspective.Backward,
	perspective.ExtendedForward, perspective.ExtendedBackward,
}

var modes = []perspective.Mode{perspective.NonVisual, perspective.Visual}

// perspectiveSets are month ordinals: one point, halves, thirds,
// quarters, and sets that do not start in January. Single-employee
// queries, which are cheap under any of them, draw from all.
var perspectiveSets = [][]int{{0}, {2, 8}, {0, 6}, {0, 4, 8}, {0, 3, 6, 9}, {1, 4, 7, 10}, {2, 5, 8, 11}}

// Queries that read most of the cube cost very different amounts under
// different clauses: a department report takes 20 ms under STATIC {Jan}
// and 48 ms under DYNAMIC FORWARD {Jan, Jul}, and BACKWARD from January
// alone relocates nothing. A class of ops whose median or 90th
// percentile is reported draws only from clauses of like cost, so that
// the number measures the server and not the draw: the semantics that
// impose structure on every month, and perspective sets of two or more
// points (four, evenly spaced, for the full-cube and planner-bound
// classes, whose cost also follows the number of ranges).
var (
	imposing  = []perspective.Semantics{perspective.Forward, perspective.ExtendedForward, perspective.ExtendedBackward}
	extended  = imposing[1:]
	manyPoint = perspectiveSets[1:]
	quarterly = perspectiveSets[4:]
)

const (
	accountsAxis = "{[Account].Levels(0).Members}"
	monthsAxis   = "{[Period].Levels(0).Members}"
	quartersAxis = "{[Period].Levels(1).Members}"
	periods      = "{Descendants([Period], 1, SELF_AND_AFTER)}"
	fixedSlicer  = "[Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue]"
)

// stream generates one client's ops. Each client has its own stream,
// seeded from (seed, client), and its own share of the employees,
// perspective sets and months, so clients never share a query text.
// There is one share more than there are closed-loop clients: the last
// belongs to the traced pass, which must find the result cache cold.
type stream struct {
	info           *cubeInfo
	sc             scale
	rng            *rand.Rand
	client, shares int
	// seen holds the texts issued so far; fresh redraws until it finds
	// a new one, so "distinct" holds by construction.
	seen map[string]bool
	n    int
	next func() op
}

func newStream(w *workloadSpec, info *cubeInfo, sc scale, seed int64, client, shares int) *stream {
	s := &stream{
		info: info, sc: sc, client: client, shares: shares,
		rng:  rand.New(rand.NewSource(seed*1000 + int64(client))),
		seen: map[string]bool{},
	}
	s.next = w.ops(s)
	return s
}

// fresh returns the first op drawn whose text this stream has not yet
// issued. A cube too small to hold enough distinct queries (the tiny
// scale) gets a repeat after 64 draws instead of a hang.
func (s *stream) fresh(draw func() op) op {
	var o op
	for tries := 0; tries < 64; tries++ {
		o = draw()
		if !s.seen[o.query] {
			s.seen[o.query] = true
			break
		}
	}
	return o
}

func pick[T any](s *stream, xs []T) T { return xs[s.rng.Intn(len(xs))] }

// own picks among the elements of xs that fall to this client.
func own[T any](s *stream, xs []T) T {
	for {
		if i := s.rng.Intn(len(xs)); i%s.shares == s.client {
			return xs[i]
		}
	}
}

// ownEmployee picks an employee of this client's share of the cube.
func (s *stream) ownEmployee(changing bool) employee {
	for {
		var e int
		if changing {
			e = pick(s, s.info.changing)
		} else {
			e = s.rng.Intn(len(s.info.emps))
		}
		if e%s.shares == s.client && s.info.emps[e].changing == changing {
			return s.info.emps[e]
		}
	}
}

// slicer pins a random scenario and the three one-member dimensions,
// in a random order: analysts write slicers in any order, the order
// changes nothing but the text, and it multiplies the distinct texts a
// small cube can supply by 24.
func (s *stream) slicer(extra ...string) string {
	parts := append(extra, "[Scenario].["+pick(s, s.info.scenarios)+"]")
	parts = append(parts, strings.Split(fixedSlicer, ", ")...)
	s.rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	return strings.Join(parts, ", ")
}

func (s *stream) ownAccount() string { return "[Account].[" + own(s, s.info.accounts) + "]" }

func selectText(with, cols, rows, slicer string) string {
	return with + "SELECT " + cols + " ON COLUMNS, " + rows + " ON ROWS FROM [App].[Db] WHERE (" + slicer + ")"
}

// perspectiveOp builds a WITH PERSPECTIVE query over the given scope.
func (s *stream) perspectiveOp(class string, ps []int, sem perspective.Semantics, mode perspective.Mode, scope []string, cols, rows, slicer string) op {
	points := make([]string, len(ps))
	for i, p := range ps {
		points[i] = "(" + s.info.months[p] + ")"
	}
	with := fmt.Sprintf("WITH PERSPECTIVE {%s} FOR %s %v %v ", strings.Join(points, ", "), workload.DimDepartment, sem, mode)
	return op{
		kind: opQuery, class: class,
		query:  selectText(with, cols, rows, slicer),
		engine: &engineSpec{members: scope, perspectives: ps, sem: sem, mode: mode},
	}
}

func memberRows(path string) string { return "{CrossJoin({[" + path + "]}, " + periods + ")}" }

// employeeOp is the single-employee query of paper Fig. 10: one
// employee's accounts by quarter and month under a perspective.
func (s *stream) employeeOp(e employee, sem perspective.Semantics, mode perspective.Mode) op {
	return s.perspectiveOp("employee", pick(s, perspectiveSets), sem, mode, []string{e.name}, accountsAxis, memberRows(e.path), s.slicer())
}

// departmentOp is the same report for one department's visual rollup.
// Its scope is the department's 80-odd employees, who are spread over
// every chunk row, so it reads most of the cube.
func (s *stream) departmentOp(d int) op {
	return s.perspectiveOp("department", pick(s, manyPoint), pick(s, imposing), perspective.Visual,
		s.info.deptScope[d], accountsAxis, memberRows(s.info.depts[d]), s.slicer())
}

// ownDepartment picks a department of this client's share.
func (s *stream) ownDepartment() int {
	for {
		if d := s.rng.Intn(len(s.info.depts)); d%s.shares == s.client {
			return d
		}
	}
}

// changesOp moves one stable employee to another department from a
// month on and reports the receiving department.
func (s *stream) changesOp() op {
	e := s.ownEmployee(false)
	to := s.rng.Intn(len(s.info.depts) - 1)
	if to >= e.dept {
		to++
	}
	at := 1 + s.rng.Intn(len(s.info.months)-1)
	mode := pick(s, modes)
	from, dest := s.info.depts[e.dept], s.info.depts[to]
	with := fmt.Sprintf("WITH CHANGES {([%s], [%s], [%s], [%s])} %v ", e.path, from, dest, s.info.months[at], mode)
	return op{
		kind: opQuery, class: "changes",
		query: selectText(with, accountsAxis, memberRows(dest), s.slicer()),
		engine: &engineSpec{mode: mode, changes: []algebra.Change{
			{Member: e.name, OldParent: from, NewParent: dest, T: at}}},
	}
}

// plainOp is a SELECT with no what-if clause: it never reaches the
// engine.
func (s *stream) plainOp() op {
	d := pick(s, s.info.depts)
	month := "[Period].[" + own(s, s.info.months) + "]"
	return op{kind: opQuery, class: "plain",
		query: selectText("", accountsAxis, "{["+d+"].Children}", s.slicer(month))}
}

// narrowMixOps interleaves new queries with one repeat of each, 50 to
// 500 ops later, so about half of all requests hit the result cache.
func narrowMixOps(s *stream) func() op {
	// Per 20 new queries: 2 plain, 4 on a stable employee, 8 on a
	// changing employee, 3 changes, 3 department — in rising order of
	// cost. With these shares the median evaluated query lies in the
	// middle of the changing-employee queries and the 90th percentile a
	// third of the way into the department reports, whatever the seed.
	pattern := []string{"E", "e", "c", "E", "d", "E", "p", "E", "e", "c", "E", "d", "E", "e", "p", "E", "c", "E", "d", "e"}
	repeats := map[int]op{}
	fresh := 0
	return func() op {
		i := s.n
		s.n++
		if o, ok := repeats[i]; ok {
			delete(repeats, i)
			return o
		}
		var o op
		switch pattern[fresh%len(pattern)] {
		case "e", "E":
			changing := pattern[fresh%len(pattern)] == "E"
			o = s.fresh(func() op { return s.employeeOp(s.ownEmployee(changing), pick(s, semantics), pick(s, modes)) })
		case "c":
			o = s.fresh(s.changesOp)
		case "p":
			o = s.fresh(s.plainOp)
		case "d":
			o = s.fresh(func() op { return s.departmentOp(s.ownDepartment()) })
		}
		fresh++
		at := i + 50 + s.rng.Intn(451)
		for _, taken := repeats[at]; taken; _, taken = repeats[at] {
			at++
		}
		repeats[at] = o
		return o
	}
}

// planHeavyOps issues extended-semantics queries over an explicit set
// of changing employees. A block is 10 plan keys (scope, semantics,
// perspective set), each under 3 account slicers, shuffled: every text
// is new to the result cache while each plan key recurs within 30 ops.
func planHeavyOps(s *stream) func() op {
	// Planning cost follows the number of instances in scope, so every
	// scope takes one employee from each stratum of the changing
	// employees ordered by their number of moves.
	byMoves := append([]int(nil), s.info.changing...)
	sort.SliceStable(byMoves, func(i, j int) bool { return s.info.emps[byMoves[i]].moves < s.info.emps[byMoves[j]].moves })
	size := min(s.sc.scopeSize, len(byMoves))
	stride := float64(len(byMoves)) / float64(size)
	var block []op
	return func() op {
		if len(block) == 0 {
			for k := 0; k < 10; k++ {
				var scope, rows []string
				for i := 0; i < size; i++ {
					e := s.info.emps[byMoves[int((float64(i)+s.rng.Float64())*stride)]]
					scope = append(scope, e.name)
					rows = append(rows, "["+e.path+"]")
				}
				sem, ps := pick(s, extended), pick(s, quarterly)
				for _, a := range s.rng.Perm(len(s.info.accounts))[:min(3, len(s.info.accounts))] {
					block = append(block, s.perspectiveOp("plan", ps, sem, perspective.NonVisual, scope, monthsAxis,
						"{"+strings.Join(rows, ", ")+"}",
						"[Account].["+s.info.accounts[a]+"], [Scenario].["+s.info.scenarios[0]+"], "+fixedSlicer))
				}
			}
			s.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		o := block[len(block)-1]
		block = block[:len(block)-1]
		return o
	}
}

// broadScanOps cycles three report classes in fixed proportion, 4:1:1,
// so that the median is a leaf report and the 90th percentile a visual
// rollup.
func broadScanOps(s *stream) func() op {
	pattern := []string{"leaf", "leaf", "static", "leaf", "leaf", "visual"}
	rollupRows := "{[" + workload.DimDepartment + "].Levels(1).Members}"
	return func() op {
		class := pattern[s.n%len(pattern)]
		s.n++
		return s.fresh(func() op {
			switch class {
			case "static":
				return s.perspectiveOp("rollup-static", pick(s, quarterly), perspective.Static, pick(s, modes), s.info.allScope,
					quartersAxis, rollupRows, s.slicer(s.ownAccount()))
			case "visual":
				return s.perspectiveOp("rollup-visual", pick(s, quarterly), pick(s, imposing), perspective.Visual, s.info.allScope,
					quartersAxis, rollupRows, s.slicer(s.ownAccount()))
			}
			var scope, rows []string
			seen := map[string]bool{}
			for _, d := range s.rng.Perm(len(s.info.depts))[:min(s.sc.reportDepts, len(s.info.depts))] {
				rows = append(rows, "["+s.info.depts[d]+"].Children")
				for _, name := range s.info.deptScope[d] {
					if !seen[name] {
						seen[name] = true
						scope = append(scope, name)
					}
				}
			}
			return s.perspectiveOp("leaf-report", pick(s, quarterly), pick(s, imposing), perspective.NonVisual, scope,
				monthsAxis, "{"+strings.Join(rows, ", ")+"}", s.slicer(s.ownAccount()))
		})
	}
}

// coldPoolOps cycles the client's share of the departments; each
// query reads nearly every chunk of the cube through a pool a tenth
// its size.
func coldPoolOps(s *stream) func() op {
	return func() op {
		d := (s.n*s.shares + s.client) % len(s.info.depts)
		s.n++
		return s.fresh(func() op { return s.departmentOp(d) })
	}
}

const sessionRounds = 12

// scenarioOps runs what-if sessions: create, 12 rounds of one edit
// batch, three queries on the edited employee and one report of the
// employee's department, then fork, diverge, diff and discard — or,
// every 4th session of client 0, commit. Only client 0 commits, so no
// commit can conflict. Three cheap queries to one expensive keep the
// median evaluated query well inside the cheap ones.
func scenarioOps(s *stream) func() op {
	var queue []op
	session := 0
	return func() op {
		if len(queue) == 0 {
			queue = s.session(session)
			session++
		}
		o := queue[0]
		queue = queue[1:]
		return o
	}
}

func (s *stream) session(n int) []op {
	commits := s.client == 0 && n%4 == 3
	structural := n%5 == 0
	ops := []op{{kind: opCreate, class: "create"}}
	for r := 0; r < sessionRounds; r++ {
		e := s.ownEmployee(false)
		ops = append(ops,
			op{kind: opEdit, slot: slotCur, class: "edit", edits: s.cellEdits(e, 5)},
			s.onScenario(s.employeeOp(e, perspective.Forward, perspective.NonVisual)),
			s.onScenario(s.employeeOp(e, perspective.Static, perspective.Visual)),
			s.onScenario(s.employeeOp(e, perspective.ExtendedBackward, perspective.NonVisual)),
			s.onScenario(s.departmentOp(e.dept)))
		if structural && r == sessionRounds/2 {
			// A validity edit keeps the chunk geometry, so the rounds after
			// it still run on the engine.
			c := s.ownEmployee(true)
			ops = append(ops, op{kind: opEdit, slot: slotCur, class: "edit-validity", edits: []scenario.Edit{{
				Op: scenario.OpValidity, Dim: workload.DimDepartment, Member: c.path,
				From: s.info.months[1], To: s.info.months[2]}}})
		}
	}
	if structural && !commits {
		// A new member widens the geometry, which sends every later query
		// of the session to the algebra path (about a second each, and out
		// of scope here), so it comes after the last query — and never in
		// a session that commits, so the served cube keeps its shape.
		name := fmt.Sprintf("Bonus-%d-%d", s.client, n)
		ops = append(ops, op{kind: opEdit, slot: slotCur, class: "edit-member", edits: []scenario.Edit{
			{Op: scenario.OpNewMember, Dim: workload.DimAccount, Parent: "AllAccounts", Name: name},
			{Op: scenario.OpSet, Value: 500, Cell: map[string]string{
				workload.DimDepartment: s.ownEmployee(false).path,
				workload.DimPeriod:     s.info.months[0],
				workload.DimAccount:    "AllAccounts/" + name}}}})
	}
	ops = append(ops,
		op{kind: opFork, slot: slotCur, class: "fork"},
		op{kind: opEdit, slot: slotFork, class: "edit", edits: s.cellEdits(s.ownEmployee(false), 1)},
		op{kind: opDiff, slot: slotFork, class: "diff"},
		op{kind: opDiscard, slot: slotFork, class: "discard"})
	if commits {
		ops = append(ops, op{kind: opCommit, slot: slotCur, class: "commit"})
	}
	return append(ops, op{kind: opDiscard, slot: slotCur, class: "discard"})
}

func (s *stream) onScenario(o op) op {
	o.slot = slotCur
	return o
}

// cellEdits writes n distinct (month, account) cells of one employee.
func (s *stream) cellEdits(e employee, n int) []scenario.Edit {
	edits := make([]scenario.Edit, 0, n)
	months, accounts := len(s.info.months), len(s.info.accounts)
	for _, k := range s.rng.Perm(months * accounts)[:n] {
		edits = append(edits, scenario.Edit{
			Op:    scenario.OpSet,
			Value: float64(1000 + s.rng.Intn(9000)),
			Cell: map[string]string{
				workload.DimDepartment: e.path,
				workload.DimPeriod:     s.info.months[k%months],
				workload.DimAccount:    s.info.accounts[k/months],
			},
		})
	}
	return edits
}
