package view_test

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/density"
	"repro/internal/view"
)

// BenchmarkTuplesFromSeries times the inference stage of CREATE VIEW:
// ARMA(1,0)-GARCH(1,1) fits over 200 windows of 90 campus readings, at one
// worker and at two.
func BenchmarkTuplesFromSeries(b *testing.B) {
	campus := dataset.Campus(dataset.CampusConfig{N: 2000})
	metric, err := density.NewARMAGARCH(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tuples, err := view.TuplesFromSeries(campus, metric, 90, 1001, 1200, workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(tuples) != 200 {
					b.Fatalf("%d tuples", len(tuples))
				}
			}
		})
	}
}
