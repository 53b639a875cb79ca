package stencil

import (
	"testing"

	"taskgrain/internal/taskrt"
)

// Run reuses step s−1's partition buffers for step s+1. Its output must stay
// bit-identical to the sequential Reference (same expression per point, same
// order) on the small rings where the reuse is tightest: np = 1 and 2 pass
// one future as several dependencies, and every larger ring ends in an
// uneven partition.
func TestRunBitIdenticalToReference(t *testing.T) {
	rt := newRT(t, 3)
	const grain = 4
	for _, np := range []int{1, 2, 3, 7} {
		for _, steps := range []int{0, 1, 2, 3, 5} {
			// The last partition holds 3 points; a single partition is the
			// whole ring.
			cfg := Config{TotalPoints: grain*(np-1) + 3, PointsPerPartition: grain, TimeSteps: steps}
			if np == 1 {
				cfg.PointsPerPartition = cfg.TotalPoints
			}
			if cfg.Partitions() != np {
				t.Fatalf("%+v: %d partitions, want %d", cfg, cfg.Partitions(), np)
			}
			sol, err := Run(rt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Reference(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := sol.Flatten()
			if len(got) != len(want) {
				t.Fatalf("%+v: %d points, want %d", cfg, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("np=%d steps=%d: point %d = %v, want %v", np, steps, i, got[i], want[i])
				}
			}
		}
	}
}

// A fine-grain run stays allocation-lean per task: one Dataflow node, the
// task and its queue links, the dependency and input slices, and no
// partition buffer after the first two steps.
func TestRunAllocsPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rt := taskrt.New(taskrt.WithWorkers(2))
	rt.Start()
	defer rt.Shutdown()
	cfg := Config{TotalPoints: 32_000, PointsPerPartition: 160, TimeSteps: 20}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(rt, cfg); err != nil {
			panic(err)
		}
	})
	tasks := float64(cfg.Partitions() * (cfg.TimeSteps + 1))
	perTask := allocs / tasks
	t.Logf("fine stencil.Run: %.2f allocs per task", perTask)
	if perTask > 10 {
		t.Fatalf("fine stencil.Run = %.2f allocs per task, want <= 10", perTask)
	}
}
