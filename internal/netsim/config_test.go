package netsim

import (
	"strings"
	"testing"

	"dibs/internal/eventq"
	"dibs/internal/transport"
	"dibs/internal/workload"
)

// Violations from different families are all reported, one line each,
// instead of the first family hiding the rest.
func TestValidateNamesEveryFamily(t *testing.T) {
	cfg := smallConfig()
	cfg.Shards = 2
	cfg.DIBS = false
	cfg.Buffer = BufferShared
	cfg.PFC = true
	cfg.TTL = 1
	cfg.FatTreeK = 3
	msg := validateMsg(cfg)
	want := []string{
		"netsim: PFC requires Shards <= 1",
		"netsim: TTL must be >= 2",
		"netsim: fat-tree K must be even and >= 2, got 3",
	}
	for _, w := range want {
		if !strings.Contains(msg, w) {
			t.Errorf("error does not name %q:\n%s", w, msg)
		}
	}
	if n := strings.Count(msg, "netsim: "); n != len(want) {
		t.Errorf("%d violations reported, want %d:\n%s", n, len(want), msg)
	}
}

// Each of these used to pass Validate and then panic deeper inside Build or
// at the first flow (or, for the transport, run silently as loss-based TCP;
// for the policy, be ignored). Validate now names each one as the config's
// only violation.
func TestValidateRejectsWhatBuildCannotBuild(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(c *Config)
		want   string
	}{
		{"unknown buffer", func(c *Config) { c.Buffer = "foo" }, `unknown buffer mode "foo"`},
		{"unknown transport", func(c *Config) { c.Transport = 7 }, "unknown transport variant 7"},
		{"zero min RTO", func(c *Config) { c.MinRTO = 0 }, "MinRTO must be positive"},
		{"zero initial window", func(c *Config) { c.InitCwnd = 0 }, "InitCwnd must be >= 1"},
		{"zero shared alpha", func(c *Config) { c.Buffer = BufferShared; c.SharedAlpha = 0 }, "SharedAlpha > 0"},
		{"probabilistic past full", func(c *Config) {
			c.Policy, c.Transport, c.ProbabilisticStart = PolicyProbabilistic, transport.PFabric, 1.5
		}, "ProbabilisticStart must be in (0,1]"},
		{"probabilistic without priorities", func(c *Config) { c.Policy = PolicyProbabilistic },
			"Policy=probabilistic needs Transport=pfabric"},
		{"unknown policy without DIBS", func(c *Config) { c.DIBS = false; c.Policy = "psychic" }, `unknown detour policy "psychic"`},
		{"odd fat-tree", func(c *Config) { c.FatTreeK = 3 }, "fat-tree K must be even and >= 2, got 3"},
		{"zero oversub", func(c *Config) { c.Oversub = 0 }, "Oversub must be >= 1"},
		{"empty linear", func(c *Config) { c.Topo = TopoLinear }, "LinearSwitches >= 1"},
		{"flat hyperx", func(c *Config) { c.Topo = TopoHyperX }, "hyperx dimensions must be >= 1, got 0x0"},
		{"dense jellyfish", func(c *Config) {
			c.Topo = TopoJellyfish
			c.JellyfishSwitches, c.JellyfishDegree, c.JellyfishHostsPer = 4, 4, 2
		}, "jellyfish degree 4 must be below its 4 switches"},
		{"odd jellyfish", func(c *Config) {
			c.Topo = TopoJellyfish
			c.JellyfishSwitches, c.JellyfishDegree, c.JellyfishHostsPer = 5, 3, 2
		}, "even JellyfishSwitches*JellyfishDegree"},
		{"zero qps", func(c *Config) { c.Query = &workload.QueryConfig{Degree: 4, ResponseBytes: 1} }, "Query.QPS must be positive"},
		{"zero degree", func(c *Config) { c.Query = &workload.QueryConfig{QPS: 1, ResponseBytes: 1} }, "Query.Degree must be >= 1"},
		{"empty responses", func(c *Config) { c.Query = &workload.QueryConfig{QPS: 1, Degree: 4} }, "Query.ResponseBytes must be positive"},
		{"degree beyond hosts", func(c *Config) { c.Query = incastQuery(300, 40, 20_000) },
			"Query.Degree 40 exceeds responder capacity 15 of 16 hosts"},
		{"one-shot without target", func(c *Config) {
			c.OneShot = &OneShot{At: eventq.Millisecond, Senders: 16, FlowsPerSender: 1, Bytes: 1}
		}, "one-shot senders must leave a target host: 16 senders, 16 hosts"},
		{"background on one host", func(c *Config) {
			c.Topo = TopoLinear
			c.LinearSwitches, c.LinearHostsPer = 1, 1
			c.BGInterarrival = eventq.Millisecond
		}, "background traffic needs >= 2 hosts, got 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			tc.mutate(&cfg)
			msg := validateMsg(cfg)
			if !strings.HasPrefix(msg, "netsim: ") || strings.Contains(msg, "\n") || !strings.Contains(msg, tc.want) {
				t.Fatalf("Validate = %q, want the one violation %q", msg, tc.want)
			}
		})
	}
	// Fan-in lets the same hosts carry a larger incast.
	cfg := smallConfig()
	cfg.Query = incastQuery(300, 40, 20_000)
	cfg.Query.MaxFanInPerHost = 3
	if msg := validateMsg(cfg); msg != "" {
		t.Fatalf("degree 40 over 15 responders x fan-in 3 rejected: %s", msg)
	}
}
