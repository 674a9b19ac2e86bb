package kalman

import "testing"

// fitEMAllocs bounds what one FitEM allocates: the Model and the filter,
// smoother and smoother-gain workspaces every EM iteration reuses.
const fitEMAllocs = 4

// TestFitEMAllocsFixed pins the //tspdb:kernel contract of the filter and
// smoother at runtime: EM iterations allocate nothing, so FitEM allocates
// the same, at most fitEMAllocs times, whether it runs 2 iterations or 200.
func TestFitEMAllocsFixed(t *testing.T) {
	_, r := simulateLocalLevel(0.3, 1, 120, 1)
	var counts []float64
	for _, maxIter := range []int{2, 200} {
		settings := &EMSettings{MaxIter: maxIter, Tol: 1e-15}
		var iters int
		allocs := testing.AllocsPerRun(20, func() {
			var err error
			if _, iters, err = FitEM(r, settings); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > fitEMAllocs {
			t.Errorf("MaxIter=%d (%d iterations run): FitEM allocates %v times, want at most %d", maxIter, iters, allocs, fitEMAllocs)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Errorf("allocs grow with iterations: %v at MaxIter=2, %v at MaxIter=200", counts[0], counts[1])
	}
}
