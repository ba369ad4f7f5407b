package main

// workloadSpec is one traffic mix. Workloads differ only in cube shape,
// storage tier, client count and op sequence; no server setting varies.
type workloadSpec struct {
	name string
	// clients is the closed-loop client count, capped at the CPU count
	// when the run starts.
	clients int
	shape   cubeShape
	tier    tier
	ops     func(*stream) func() op
	// sessions marks a workload whose queries all run inside scenarios:
	// its output is verified by replaying a session, not from a sample
	// of catalog queries.
	sessions bool
}

// workloads are documented in README.md and BENCHMARK.json; later
// issues cite them by name.
var workloads = []*workloadSpec{
	{name: "narrow-mix", clients: 2, shape: shapeWF, tier: tierResident, ops: narrowMixOps},
	{name: "plan-heavy", clients: 2, shape: shapeVW, tier: tierResident, ops: planHeavyOps},
	{name: "broad-scan", clients: 1, shape: shapeWF, tier: tierResident, ops: broadScanOps},
	{name: "cold-pool", clients: 2, shape: shapeWF, tier: tierColdPool, ops: coldPoolOps},
	{name: "scenario-rw", clients: 2, shape: shapeWF, tier: tierPersisted, ops: scenarioOps, sessions: true},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
