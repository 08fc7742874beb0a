// Benchmarks regenerating the paper's evaluation: one sub-benchmark per
// registered experiment, named by its ID. Each iteration runs the
// experiment at a reduced scale (the full-scale numbers live in
// EXPERIMENTS.md and come from cmd/figures).
//
// Run a single figure: go test -bench 'Figures/fig08' -benchtime 1x
package dibs_test

import (
	"testing"

	"dibs/internal/experiments"
)

// benchScale keeps a single iteration around a second of wall time.
const benchScale = 0.05

func BenchmarkFigures(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tables := e.Run(experiments.Opts{Seed: int64(i + 1), Scale: benchScale})
				if len(tables) == 0 || len(tables[0].Rows) == 0 && len(tables[0].Notes) == 0 {
					b.Fatalf("%s produced no output", e.ID)
				}
			}
		})
	}
}
