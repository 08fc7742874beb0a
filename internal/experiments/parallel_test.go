package experiments

import (
	"bytes"
	"fmt"
	"testing"
)

// renderAll runs one experiment at Seed 3, Scale 0.05 and returns the
// rendered tables plus the full log stream — everything a user of
// cmd/figures can observe — and the tables themselves.
func renderAll(t *testing.T, id string, workers int) (text, logs string, tables []*Table) {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	var logBuf bytes.Buffer
	o := Opts{
		Seed:    3,
		Scale:   0.05,
		Workers: workers,
		Log: func(format string, args ...any) {
			fmt.Fprintf(&logBuf, format+"\n", args...)
		},
	}
	var tabBuf bytes.Buffer
	tables = e.Run(o)
	for _, tab := range tables {
		tab.Render(&tabBuf)
	}
	return tabBuf.String(), logBuf.String(), tables
}

// TestParallelMatchesSerial is the runner's determinism contract, end to
// end: for sweep experiments the parallel path must produce byte-identical
// tables AND byte-identical log streams to the serial path. fig08 and
// fig12 are plain both-arm sweeps; fig06 exercises the repeat-seed grid;
// fig07 a three-arm sweep.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full experiments")
	}
	for _, id := range []string{"fig08", "fig12", "fig06", "fig07"} {
		t.Run(id, func(t *testing.T) {
			serialTab, serialLog, _ := renderAll(t, id, 1)
			for _, workers := range []int{2, 4} {
				parTab, parLog, _ := renderAll(t, id, workers)
				if parTab != serialTab {
					t.Errorf("workers=%d: tables differ from serial\n--- serial ---\n%s\n--- workers=%d ---\n%s",
						workers, serialTab, workers, parTab)
				}
				if parLog != serialLog {
					t.Errorf("workers=%d: log stream differs from serial\n--- serial ---\n%s\n--- workers=%d ---\n%s",
						workers, serialLog, workers, parLog)
				}
			}
		})
	}
}
