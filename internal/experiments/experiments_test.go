package experiments

import (
	"bytes"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig01", "fig02", "fig04", "fig05", "fig06", "fig07", "fig08",
		"fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "dba", "oversub", "fair", "policies", "topos", "dupack",
		"pfc", "spray", "delack", "cioq", "minrto",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) < len(want) {
		t.Fatalf("registry has %d experiments, want >= %d", len(All()), len(want))
	}
	// All() is sorted and stable.
	ids := All()
	for i := 1; i < len(ids); i++ {
		if ids[i-1].ID >= ids[i].ID {
			t.Fatal("All() not sorted")
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID should miss unknown ids")
	}
}

func TestTableRenderAndValidation(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", XLabel: "x", Columns: []string{"a", "b"}}
	tb.AddRow("r1", 1, math.NaN())
	tb.Note("hello %d", 7)
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"## x — T", "r1", "1.00", "-", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row width should panic")
		}
	}()
	tb.AddRow("bad", 1)
}

func TestFormatVal(t *testing.T) {
	cases := map[float64]string{
		math.NaN(): "-",
		0:          "0.00",
		0.0003:     "0.0003",
		12.345:     "12.35",
		123456:     "123456",
	}
	for v, want := range cases {
		if got := formatVal(v); got != want {
			t.Errorf("formatVal(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestOptsScaling(t *testing.T) {
	o := Opts{}
	o.normalize()
	if o.Scale != 1 || o.Seed != 1 {
		t.Fatal("normalize defaults")
	}
	o.Scale = 0.001
	if d := o.dur(1000 * 1000 * 1000); d < 20*1000*1000 {
		t.Fatal("dur floor not applied")
	}
}

// goldenOutput is the FNV-64a of each experiment's rendered tables followed
// by its Opts.Log stream at Seed 3, Scale 0.05: everything cmd/figures -v
// shows. A refactor of the experiments must leave every value unchanged.
var goldenOutput = map[string]uint64{
	"cioq":     0xa47673648a6f5f80,
	"dba":      0x18df876b29826280,
	"delack":   0x33a69247fe3cc86f,
	"dupack":   0xdbcf84795e9fb589,
	"fair":     0xbc2518bae9e37fac,
	"fig01":    0xb8d7172c52bba9f4,
	"fig02":    0x82502b6b9d1c9223,
	"fig04":    0x4ef1b92aa8e1437f,
	"fig05":    0x09a0e84de1448c5c,
	"fig06":    0xf55654d1c37ea34b,
	"fig07":    0x78da8d12c3b703c6,
	"fig08":    0x2c3499348013b929,
	"fig09":    0xc8c591d36f1dd6a2,
	"fig10":    0xb7c1874124df72d1,
	"fig11":    0xf54e057f9fb26546,
	"fig12":    0xa91bc4f374ff0956,
	"fig13":    0xee8add5131c0a468,
	"fig14":    0xcf14325d7802dc64,
	"fig15":    0x0b1fab654ae4f888,
	"fig16":    0x723ad9edbc7328b5,
	"minrto":   0x62608f2cc9341bf4,
	"oversub":  0xcfe85ebdada3bd3e,
	"pfc":      0x1780da08d7381a48,
	"policies": 0x856df14f3b4e67b7,
	"spray":    0xd28780f0a684ead5,
	"topos":    0x87905dbfa6ae1277,
}

// Smoke-run every registered experiment at a tiny scale: tables carry
// metadata and render, and the output equals its golden fingerprint
// (asserted on amd64 only, like the netsim goldens: other architectures
// may fuse multiply-adds, which moves low-order float bits).
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are slow")
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			text, logs, tables := renderAll(t, e.ID, 0)
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tables {
				if tb.ID == "" || tb.Title == "" {
					t.Fatalf("%s: table missing metadata", e.ID)
				}
			}
			if runtime.GOARCH != "amd64" {
				return
			}
			h := fnv.New64a()
			h.Write([]byte(text + logs))
			if got, want := h.Sum64(), goldenOutput[e.ID]; got != want {
				t.Errorf("%s: output fingerprint %#x, want %#x; output:\n%s%s", e.ID, got, want, text, logs)
			}
		})
	}
}
