package garch

import "testing"

// fitAllocs bounds what one Fit allocates: the start point, the workspace
// Model and variance buffer, the objective closure, and the Nelder-Mead
// simplex and result. None of it depends on the iteration count.
const fitAllocs = 12

// TestFitAllocsFixed pins the //tspdb:kernel contract of the likelihood at
// runtime: the objective evaluations allocate nothing, so Fit allocates the
// same, at most fitAllocs times, whether the search stops after 5
// iterations or runs 400.
func TestFitAllocsFixed(t *testing.T) {
	a := simulateGARCH(0.2, 0.1, 0.8, 300, 1)
	var counts []float64
	for _, maxIter := range []int{5, 400} {
		settings := &FitSettings{MaxIter: maxIter}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Fit(a, 1, 1, settings); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > fitAllocs {
			t.Errorf("MaxIter=%d: Fit allocates %v times, want at most %d", maxIter, allocs, fitAllocs)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Errorf("allocs grow with iterations: %v at MaxIter=5, %v at MaxIter=400", counts[0], counts[1])
	}
}
