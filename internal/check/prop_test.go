package check

import (
	"testing"

	"mpisim/internal/apps"
	"mpisim/internal/irgen"
)

// Generated programs are well-formed and deadlock-free by construction
// (guarded one-directional ring shifts, unconditional collectives), so
// the checker must accept every one of them without errors: any error is
// a false positive by definition, and any panic a robustness bug.
func TestGeneratedProgramsCheckClean(t *testing.T) {
	const seeds = 60
	for seed := int64(0); seed < seeds; seed++ {
		p, inputs := irgen.Program(seed, irgen.Config{})
		for _, ranks := range []int{1, 3, 4} {
			res, err := Run(p, Options{Ranks: ranks, Inputs: inputs})
			if err != nil {
				t.Fatalf("seed %d ranks %d: %v", seed, ranks, err)
			}
			if res.HasErrors() {
				t.Errorf("seed %d ranks %d: false positive:\n%s\nprogram:\n%s",
					seed, ranks, res.Text(Error), p)
			}
		}
	}
}

// Larger generated programs stress the unrolling budget: the checker may
// degrade to warnings about truncation but must never report an error or
// crash.
func TestGeneratedProgramsBudgetedCheck(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p, inputs := irgen.Program(seed, irgen.Config{MaxNests: 6, MaxTimeSteps: 12})
		res, err := Run(p, Options{Ranks: 4, Inputs: inputs, MaxOps: 200})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.HasErrors() {
			t.Errorf("seed %d under a tight budget: false positive:\n%s", seed, res.Text(Error))
		}
	}
}

var sinkText string

// The property test doubles as a smoke benchmark guard: checking a
// generated program end to end must stay cheap enough to run before
// every simulation (the core fail-fast hook).
func BenchmarkCheckGenerated(b *testing.B) {
	p, inputs := irgen.Program(1, irgen.Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(p, Options{Ranks: 4, Inputs: inputs})
		if err != nil {
			b.Fatal(err)
		}
		sinkText = res.Text(Info)
	}
}

// checkSweep3D runs the checker on Sweep3D with mpicheck's default
// inputs for the rank count.
func checkSweep3D(tb testing.TB, ranks int) *Result {
	spec := apps.Registry()["sweep3d"]
	res, err := Run(spec.Build(), Options{Ranks: ranks, Inputs: spec.Default(ranks)})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// Facts that depend only on the IR (loop communication, structural
// definitions, kill sets) are computed once per Run, so the evaluator's
// allocations grow with the ranks' emitted operations, not with every
// unrolled loop iteration. The ceiling keeps a per-iteration def/use
// rebuild from coming back unnoticed.
func TestCheckAllocsScaleWithRanks(t *testing.T) {
	for _, ranks := range []int{256, 1024} {
		allocs := testing.AllocsPerRun(1, func() { checkSweep3D(t, ranks) })
		if limit := float64(200*ranks + 20000); allocs > limit {
			t.Errorf("check.Run(sweep3d, %d ranks): %.0f allocs (%.0f per rank), ceiling %.0f",
				ranks, allocs, allocs/float64(ranks), limit)
		}
	}
}

// BenchmarkCheckSweep3D measures one full check at a scale where the
// per-rank abstract evaluation dominates.
func BenchmarkCheckSweep3D(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkText = checkSweep3D(b, 1024).Text(Info)
	}
}
