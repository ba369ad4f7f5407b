// Package workload generates the synthetic datasets the benchmarks and
// examples run on. Workforce reproduces the shape of the paper's
// evaluation dataset (§6): a real customer workforce-planning
// application with 7 dimensions — 20,250 employees rolling up into 51
// departments, 250 of whom (1%) change departments between 1 and 11
// times over a 12-month period, with 100 measures across 5 business
// scenarios (121M input cells). Retail builds the product/market cube
// used by the paper's product-bundling examples.
//
// The full paper scale is reachable (ConfigPaper), but the default
// configuration is proportionally scaled to laptop size; query cost in
// this engine is driven by the number of changing instances, chunks and
// perspectives, which the scaling preserves (see EXPERIMENTS.md).
package workload

import (
	"fmt"
	"math/rand"

	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
)

// WorkforceConfig parameterizes the workforce generator.
type WorkforceConfig struct {
	// Employees is the total head count (paper: 20250).
	Employees int
	// Departments is the number of departments (paper: 51).
	Departments int
	// ChangingEmployees move between departments (paper: 250, i.e. 1%).
	ChangingEmployees int
	// MinMoves/MaxMoves bound each changing employee's reclassification
	// count over the year (paper: between 1 and 11).
	MinMoves, MaxMoves int
	// Months is the parameter-dimension extent (paper: 12).
	Months int
	// Accounts is the number of leaf measures (paper: 100).
	Accounts int
	// Scenarios is the number of business scenarios (paper: 5).
	Scenarios int
	// Seed makes generation deterministic.
	Seed int64
	// FlatMonths drops the monthly drift factor from generated values,
	// so a stable instance carries one constant value across its whole
	// validity window — the shape run-length encoding compresses. The
	// RLE benchmark figure uses it (with a period-fastest ChunkDims) to
	// model validity-window cubes; default keeps the drift.
	FlatMonths bool
	// ChunkDims sets the chunk edge for
	// (Department, Period, Account, Scenario, Currency, Version,
	// ValueType); zero entries get defaults.
	ChunkDims []int
}

// ConfigPaper returns the paper's full dataset shape (≈121M input
// cells; needs several GB of memory — benchmarks use ConfigDefault).
func ConfigPaper() WorkforceConfig {
	return WorkforceConfig{
		Employees: 20250, Departments: 51, ChangingEmployees: 250,
		MinMoves: 1, MaxMoves: 11, Months: 12, Accounts: 100, Scenarios: 5,
		Seed: 1,
	}
}

// ConfigDefault returns a laptop-scale configuration preserving the
// paper's ratios where they matter: 51 departments, 250 changing
// employees with 1–11 moves, 12 months.
func ConfigDefault() WorkforceConfig {
	return WorkforceConfig{
		Employees: 4050, Departments: 51, ChangingEmployees: 250,
		MinMoves: 1, MaxMoves: 11, Months: 12, Accounts: 10, Scenarios: 2,
		Seed: 1,
	}
}

// ConfigTiny returns a configuration small enough for unit tests.
func ConfigTiny() WorkforceConfig {
	return WorkforceConfig{
		Employees: 60, Departments: 6, ChangingEmployees: 10,
		MinMoves: 1, MaxMoves: 4, Months: 12, Accounts: 4, Scenarios: 2,
		Seed: 1,
	}
}

// Validate checks the configuration.
func (c WorkforceConfig) Validate() error {
	switch {
	case c.Employees <= 0 || c.Departments <= 0 || c.Months <= 0 ||
		c.Accounts <= 0 || c.Scenarios <= 0:
		return fmt.Errorf("workload: non-positive size in %+v", c)
	case c.ChangingEmployees > c.Employees:
		return fmt.Errorf("workload: %d changing employees exceed %d employees", c.ChangingEmployees, c.Employees)
	case c.MinMoves < 1 || c.MaxMoves < c.MinMoves:
		return fmt.Errorf("workload: bad move bounds [%d, %d]", c.MinMoves, c.MaxMoves)
	case c.MaxMoves >= c.Months:
		return fmt.Errorf("workload: %d moves do not fit in %d months", c.MaxMoves, c.Months)
	case c.Departments < 2 && c.ChangingEmployees > 0:
		return fmt.Errorf("workload: moves require at least 2 departments")
	}
	return nil
}

// Workforce is the generated dataset.
type Workforce struct {
	Cube   *cube.Cube
	Config WorkforceConfig
	// Changing lists the changing employees' base names, in order.
	Changing []string
	// MovesOf maps a changing employee to their number of moves.
	MovesOf map[string]int
}

// Dimension name constants of the workforce schema.
const (
	DimDepartment = "Department"
	DimPeriod     = "Period"
	DimAccount    = "Account"
	DimScenario   = "Scenario"
	DimCurrency   = "Currency"
	DimVersion    = "Version"
	DimValueType  = "ValueType"
)

// NewWorkforce generates the dataset deterministically from the
// configuration.
func NewWorkforce(cfg WorkforceConfig) (*Workforce, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	// Department dimension: departments over employees. Employees are
	// dealt round-robin so departments have near-equal size.
	dept := dimension.New(DimDepartment, false)
	deptNames := make([]string, cfg.Departments)
	for d := 0; d < cfg.Departments; d++ {
		deptNames[d] = fmt.Sprintf("Dept%02d", d)
		dept.MustAdd("", deptNames[d])
	}
	empNames := make([]string, cfg.Employees)
	homeDept := make([]int, cfg.Employees)
	for e := 0; e < cfg.Employees; e++ {
		empNames[e] = fmt.Sprintf("Emp%05d", e)
		homeDept[e] = e % cfg.Departments
		dept.MustAdd(deptNames[homeDept[e]], empNames[e])
	}

	// Period: quarters over months (ordered).
	period := dimension.New(DimPeriod, true)
	for m := 0; m < cfg.Months; m++ {
		q := fmt.Sprintf("Q%d", m/3+1)
		if m%3 == 0 {
			period.MustAdd("", q)
		}
		period.MustAdd(q, monthName(m))
	}

	// Account: a Compensation group over the leaf accounts.
	account := dimension.New(DimAccount, false)
	account.MarkMeasure()
	account.MustAdd("", "AllAccounts")
	for a := 0; a < cfg.Accounts; a++ {
		account.MustAdd("AllAccounts", fmt.Sprintf("Acct%03d", a))
	}

	scenario := dimension.New(DimScenario, false)
	for s := 0; s < cfg.Scenarios; s++ {
		name := "Current"
		if s > 0 {
			name = fmt.Sprintf("Scenario%d", s)
		}
		scenario.MustAdd("", name)
	}
	currency := dimension.New(DimCurrency, false)
	currency.MustAdd("", "Local")
	version := dimension.New(DimVersion, false)
	version.MustAdd("", "BU Version_1")
	valueType := dimension.New(DimValueType, false)
	valueType.MustAdd("", "HSP_InputValue")

	// Moves: each changing employee is reclassified MinMoves..MaxMoves
	// times at distinct months ≥ 1 (the first month uses the home
	// department).
	type move struct {
		month, dept int
	}
	movesOf := map[string]int{}
	changing := make([]string, 0, cfg.ChangingEmployees)
	empMoves := make([][]move, cfg.Employees)
	for e := 0; e < cfg.ChangingEmployees; e++ {
		n := cfg.MinMoves + r.Intn(cfg.MaxMoves-cfg.MinMoves+1)
		months := r.Perm(cfg.Months - 1)[:n]
		for i := 0; i < len(months); i++ {
			months[i]++ // moves happen from month 1 onward
		}
		sortInts(months)
		cur := homeDept[e]
		var ms []move
		for _, m := range months {
			next := r.Intn(cfg.Departments - 1)
			if next >= cur {
				next++
			}
			ms = append(ms, move{month: m, dept: next})
			cur = next
		}
		empMoves[e] = ms
		changing = append(changing, empNames[e])
		movesOf[empNames[e]] = len(ms)
	}

	// Add the extra instances and compute validity sets.
	b := dimension.NewBinding(dept, period)
	instAt := make([][]dimension.MemberID, cfg.Employees) // per employee, instance per month
	for e := 0; e < cfg.Employees; e++ {
		ms := empMoves[e]
		if len(ms) == 0 {
			continue
		}
		// Build the per-month department series.
		series := make([]int, cfg.Months)
		cur := homeDept[e]
		mi := 0
		for m := 0; m < cfg.Months; m++ {
			for mi < len(ms) && ms[mi].month == m {
				cur = ms[mi].dept
				mi++
			}
			series[m] = cur
		}
		// Validity sets per distinct department, walked in department
		// order: a new instance's member ID must not depend on map
		// order, or one seed builds different IDs.
		monthsByDept := make([][]int, cfg.Departments)
		for m, d := range series {
			monthsByDept[d] = append(monthsByDept[d], m)
		}
		instAt[e] = make([]dimension.MemberID, cfg.Months)
		for d, months := range monthsByDept {
			if months == nil {
				continue
			}
			path := deptNames[d] + "/" + empNames[e]
			id, err := dept.Lookup(path)
			if err != nil {
				id = dept.MustAdd(deptNames[d], empNames[e])
			}
			b.SetVS(id, months...)
			for _, m := range months {
				instAt[e][m] = id
			}
		}
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated binding invalid: %w", err)
	}

	// Chunked store.
	dims := []*dimension.Dimension{dept, period, account, scenario, currency, version, valueType}
	extents := make([]int, len(dims))
	for i, d := range dims {
		extents[i] = d.NumLeaves()
	}
	cd := defaultChunkDims(extents, cfg.ChunkDims)
	store := chunk.NewStore(chunk.MustGeometry(extents, cd))
	c := cube.NewWithStore(store, dims...)
	if err := c.AddBinding(b); err != nil {
		return nil, err
	}

	// Input data: every account for every employee-month (under the
	// valid instance), per scenario. Values are salary-like.
	addr := make([]int, len(dims))
	for e := 0; e < cfg.Employees; e++ {
		base := 4000 + r.Intn(6000)
		for m := 0; m < cfg.Months; m++ {
			var inst dimension.MemberID
			if instAt[e] != nil {
				inst = instAt[e][m]
			} else {
				inst = dept.MustLookup(deptNames[homeDept[e]] + "/" + empNames[e])
			}
			io := dept.Member(inst).LeafOrdinal
			for a := 0; a < cfg.Accounts; a++ {
				for s := 0; s < cfg.Scenarios; s++ {
					addr[0] = io
					addr[1] = m
					addr[2] = a
					addr[3] = s
					addr[4], addr[5], addr[6] = 0, 0, 0
					// Salaries drift month to month so what-if columns
					// differ from actuals even for stable structures —
					// unless FlatMonths asks for constant validity
					// windows (the run-encoding benchmark shape).
					v := float64(base) * (1 + 0.01*float64(a)) * (1 + 0.1*float64(s))
					if !cfg.FlatMonths {
						v *= 1 + 0.02*float64(m)
					}
					store.Set(addr, v)
				}
			}
		}
	}
	return &Workforce{Cube: c, Config: cfg, Changing: changing, MovesOf: movesOf}, nil
}

// ChangingWithMoves returns changing employees with exactly n moves, or
// at least n moves when atLeast is true.
func (w *Workforce) ChangingWithMoves(n int, atLeast bool) []string {
	var out []string
	for _, name := range w.Changing {
		m := w.MovesOf[name]
		if m == n || (atLeast && m >= n) {
			out = append(out, name)
		}
	}
	return out
}

func monthName(m int) string {
	names := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
	if m < len(names) {
		return names[m]
	}
	return fmt.Sprintf("M%02d", m+1)
}

// defaultChunkDims chooses per-dimension chunk edges: the varying
// dimension gets small chunks (merging works chunk-wise), time one
// quarter, the rest whole-extent.
func defaultChunkDims(extents, override []int) []int {
	cd := make([]int, len(extents))
	for i := range cd {
		if override != nil && i < len(override) && override[i] > 0 {
			cd[i] = override[i]
			continue
		}
		switch i {
		case 0: // varying dimension: chunk rows of employees
			cd[i] = 64
		case 1: // period: one quarter per chunk
			cd[i] = 3
		default:
			cd[i] = extents[i]
		}
	}
	return cd
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
