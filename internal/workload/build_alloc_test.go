package workload

import "testing"

// TestBuildAllocBudget gates what building the 18 kernels at ScaleRun
// allocates: 688 allocations, about 290 of them the page runs of the
// kernels' data images. Before isa.Memory took its pages in runs of up to
// 8, each of the images' 1,965 pages was an allocation of its own, 2,360
// allocations in all.
func TestBuildAllocBudget(t *testing.T) {
	const budget = 750
	n := testing.AllocsPerRun(3, func() {
		for _, sp := range All() {
			sp.Build(ScaleRun)
		}
	})
	t.Logf("building %d kernels at ScaleRun: %.0f allocations", len(All()), n)
	if n > budget {
		t.Errorf("building %d kernels at ScaleRun allocates %.0f, budget %d", len(All()), n, budget)
	}
}
