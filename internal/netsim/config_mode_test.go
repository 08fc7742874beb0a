package netsim

import (
	"strings"
	"testing"

	"dibs/internal/transport"
)

// The fluid/hybrid gate must name every incompatible option at once — a
// user fixing their config one rejected flag at a time is the failure mode
// this test pins out.
func TestValidateModeNamesOffenders(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(c *Config)
		want    []string // substrings the error must contain
		wantNot []string // options that are off and must not be blamed
	}{
		{
			name:   "shards",
			mutate: func(c *Config) { c.Shards = 4 },
			want:   []string{"Shards"},
		},
		{
			name: "pfc",
			mutate: func(c *Config) {
				c.DIBS = false
				c.Buffer = BufferShared
				c.PFC = true
			},
			want:    []string{"PFC"},
			wantNot: []string{"Shards", "TraceEvents"},
		},
		{
			name:   "cioq",
			mutate: func(c *Config) { c.Arch = ArchCIOQ },
			want:   []string{"Arch=cioq"},
		},
		{
			name: "pfabric buffers",
			mutate: func(c *Config) {
				// DIBS off (and the matching transport on), so that the
				// mode's is the only rejection.
				c.DIBS = false
				c.Buffer = BufferPFabric
				c.Transport = transport.PFabric
				c.DupAckThresh = 3
			},
			want: []string{"Buffer=pfabric"},
		},
		{
			name:   "packet spray",
			mutate: func(c *Config) { c.PacketSpray = true },
			want:   []string{"PacketSpray"},
		},
		{
			name:   "tracing",
			mutate: func(c *Config) { c.TraceEvents = true },
			want:   []string{"TraceEvents"},
		},
		{
			name:    "packet sampling",
			mutate:  func(c *Config) { c.TraceEveryNth = 10 },
			want:    []string{"TraceEveryNth"},
			wantNot: []string{"TraceEvents "},
		},
		{
			name:   "util monitor",
			mutate: func(c *Config) { c.UtilWindow = 100 },
			want:   []string{"UtilWindow"},
		},
		{
			name:   "buffer monitor",
			mutate: func(c *Config) { c.BufferSamplePeriod = 100 },
			want:   []string{"BufferSamplePeriod"},
		},
		{
			name: "everything at once",
			mutate: func(c *Config) {
				c.PacketSpray = true
				c.TraceEvents = true
				c.UtilWindow = 100
			},
			want: []string{"PacketSpray", "TraceEvents", "UtilWindow"},
		},
	}
	for _, mode := range []SimMode{ModeFluid, ModeHybrid} {
		for _, tc := range cases {
			t.Run(string(mode)+"/"+tc.name, func(t *testing.T) {
				cfg := smallConfig()
				cfg.Mode = mode
				tc.mutate(&cfg)
				msg := validateMsg(cfg)
				if msg == "" {
					t.Fatalf("Validate accepted Mode=%s with %s", mode, tc.name)
				}
				if !strings.Contains(msg, "Mode="+string(mode)) {
					t.Errorf("error %q does not name the mode", msg)
				}
				for _, w := range tc.want {
					if !strings.Contains(msg, w) {
						t.Errorf("error %q does not name %q", msg, w)
					}
				}
				for _, w := range tc.wantNot {
					if strings.Contains(msg, w) {
						t.Errorf("error %q blames %q, which is not set", msg, w)
					}
				}
			})
		}
	}
}

func TestValidateModeAcceptsCleanAndPacketConfigs(t *testing.T) {
	for _, mode := range []SimMode{"", ModePacket, ModeFluid, ModeHybrid} {
		cfg := smallConfig()
		cfg.Mode = mode
		if msg := validateMsg(cfg); msg != "" {
			t.Fatalf("clean Mode=%q config rejected: %s", mode, msg)
		}
	}
	// Packet mode carries no fluid restrictions: the same instrumentation
	// fluid/hybrid reject is fine there.
	cfg := smallConfig()
	cfg.Mode = ModePacket
	cfg.TraceEvents = true
	cfg.PacketSpray = true
	if msg := validateMsg(cfg); msg != "" {
		t.Fatalf("packet-mode instrumentation rejected: %s", msg)
	}
	// Negative fluid tunables are nonsense in any fluid mode.
	cfg = smallConfig()
	cfg.Mode = ModeHybrid
	cfg.FluidTick = -1
	if msg := validateMsg(cfg); !strings.Contains(msg, "fluid tunables") {
		t.Fatalf("negative fluid tunable accepted (error %q)", msg)
	}
	// Unknown modes fail closed.
	cfg = smallConfig()
	cfg.Mode = "quantum"
	if msg := validateMsg(cfg); !strings.Contains(msg, "unknown simulation mode") {
		t.Fatalf("unknown mode accepted (error %q)", msg)
	}
}
