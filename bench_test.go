// Benchmarks regenerating the paper's evaluation, one per table/figure.
// Each benchmark iteration runs the corresponding experiment at a reduced
// scale (the full-scale numbers live in EXPERIMENTS.md and come from
// cmd/figures). Custom metrics report the headline quantity of each figure
// so `go test -bench=.` doubles as a shape regression check.
//
// Run a single figure: go test -bench=BenchmarkFig08 -benchtime=1x
package dibs_test

import (
	"testing"

	"dibs/internal/experiments"
)

// benchScale keeps a single iteration around a second of wall time.
const benchScale = 0.05

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables := e.Run(experiments.Opts{Seed: int64(i + 1), Scale: benchScale})
		if len(tables) == 0 || len(tables[0].Rows) == 0 && len(tables[0].Notes) == 0 {
			b.Fatalf("%s produced no output", id)
		}
	}
}

// --- §2 worked examples ---

func BenchmarkFig01PacketTrace(b *testing.B)    { benchExperiment(b, "fig01") }
func BenchmarkFig02DetourTimeline(b *testing.B) { benchExperiment(b, "fig02") }

// --- §3 requirements ---

func BenchmarkFig04HotLinks(b *testing.B)        { benchExperiment(b, "fig04") }
func BenchmarkFig05NeighborBuffers(b *testing.B) { benchExperiment(b, "fig05") }

// --- §5.2 Click testbed ---

func BenchmarkFig06ClickIncast(b *testing.B) { benchExperiment(b, "fig06") }

// --- §5.4 traffic sweeps ---

func BenchmarkFig07BufferSizes(b *testing.B)     { benchExperiment(b, "fig07") }
func BenchmarkFig08BackgroundSweep(b *testing.B) { benchExperiment(b, "fig08") }
func BenchmarkFig09QueryRateSweep(b *testing.B)  { benchExperiment(b, "fig09") }
func BenchmarkFig10ResponseSizes(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkFig11IncastDegree(b *testing.B)    { benchExperiment(b, "fig11") }

// --- §5.5 network configurations ---

func BenchmarkFig12SmallBuffers(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFig13TTLLimits(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkDBASharedBuffers(b *testing.B)  { benchExperiment(b, "dba") }
func BenchmarkOversubscription(b *testing.B)  { benchExperiment(b, "oversub") }

// --- §5.6 / §5.7 / §5.8 ---

func BenchmarkFairness(b *testing.B)            { benchExperiment(b, "fair") }
func BenchmarkFig14ExtremeQPS(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15LargeResponses(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFig16PFabric(b *testing.B)        { benchExperiment(b, "fig16") }

// --- §7 ablations ---

func BenchmarkPolicyAblation(b *testing.B)   { benchExperiment(b, "policies") }
func BenchmarkTopologyAblation(b *testing.B) { benchExperiment(b, "topos") }
func BenchmarkDupAckAblation(b *testing.B)   { benchExperiment(b, "dupack") }
func BenchmarkPFCComparison(b *testing.B)    { benchExperiment(b, "pfc") }
func BenchmarkCIOQArchitecture(b *testing.B) { benchExperiment(b, "cioq") }
func BenchmarkPacketSpray(b *testing.B)      { benchExperiment(b, "spray") }
func BenchmarkDelayedAck(b *testing.B)       { benchExperiment(b, "delack") }
func BenchmarkMinRTO(b *testing.B)           { benchExperiment(b, "minrto") }
