package netsim

import (
	"strings"
	"testing"

	"dibs/internal/eventq"
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
// for the policy, be ignored; for the one-shot senders, drain and long
// flows, run to a result that can never be complete). Validate now names
// each one as the config's only violation.
func TestValidateRejectsWhatBuildCannotBuild(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(c *Config)
		want   string
	}{
		{"unknown buffer", func(c *Config) { c.Buffer = "foo" }, `unknown buffer mode "foo"`},
		{"unknown transport", func(c *Config) { c.Transport = 7 }, "unknown transport variant 7"},
		{"zero min RTO", func(c *Config) { c.MinRTO = 0 }, "MinRTO must be positive"},
		{"deleted probabilistic policy", func(c *Config) { c.Policy = "probabilistic" }, `unknown detour policy "probabilistic"`},
		{"unknown policy without DIBS", func(c *Config) { c.DIBS = false; c.Policy = "psychic" }, `unknown detour policy "psychic"`},
		{"odd fat-tree", func(c *Config) { c.FatTreeK = 3 }, "fat-tree K must be even and >= 2, got 3"},
		{"zero oversub", func(c *Config) { c.Oversub = 0 }, "Oversub must be >= 1"},
		{"oversub beyond link rate", func(c *Config) { c.Oversub = 1_000_000_001 },
			"Oversub 1000000001 leaves switch-to-switch links no capacity at LinkRate 1000000000"},
		{"fat-tree beyond 64 ports", func(c *Config) { c.FatTreeK = 66 }, "fattree switches would need 66 ports; at most 64 fit"},
		{"linear beyond 64 ports", func(c *Config) {
			c.Topo = TopoLinear
			c.LinearSwitches, c.LinearHostsPer = 1, 65
		}, "linear switches would need 65 ports; at most 64 fit"},
		{"negative link delay", func(c *Config) { c.LinkDelay = -1 }, "LinkDelay must be >= 0"},
		{"negative drain", func(c *Config) { c.Drain = -c.Duration }, "Drain must be >= 0"},
		{"one-shot of nothing", func(c *Config) {
			c.OneShot = &OneShot{At: eventq.Millisecond, Senders: 4, FlowsPerSender: 1, Bytes: 0}
		}, "OneShot.Bytes must be positive"},
		{"one-shot in the past", func(c *Config) {
			c.OneShot = &OneShot{At: -eventq.Millisecond, Senders: 4, FlowsPerSender: 1, Bytes: 1}
		}, "OneShot.At must be >= 0"},
		{"one-shot without senders", func(c *Config) {
			c.OneShot = &OneShot{At: eventq.Millisecond, Senders: -1, FlowsPerSender: 1, Bytes: 1}
		}, "OneShot.Senders must be >= 1"},
		{"one-shot without flows", func(c *Config) {
			c.OneShot = &OneShot{At: eventq.Millisecond, Senders: 4, FlowsPerSender: 0, Bytes: 1}
		}, "OneShot.FlowsPerSender must be >= 1"},
		{"long pairs without flows", func(c *Config) { c.Long = &LongFlows{PerPair: 0} }, "Long.PerPair must be >= 1"},
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
		{"negative switch marking", func(c *Config) { c.MarkAtPkts = -1 }, "MarkAtPkts must be >= 0 (0 disables switch ECN marking)"},
		{"negative dup-ack threshold", func(c *Config) { c.DupAckThresh = -1 }, "DupAckThresh must be >= 0 (0 disables fast retransmit)"},
		{"negative background gap", func(c *Config) { c.BGInterarrival = -1 }, "BGInterarrival must be >= 0 (0 disables background traffic)"},
		{"negative jitter", func(c *Config) { c.ForwardJitter = -1 }, "ForwardJitter must be >= 0 (0 disables link jitter)"},
		{"negative trace stride", func(c *Config) { c.TraceEveryNth = -1 }, "TraceEveryNth must be >= 0 (0 disables path tracing)"},
		{"negative util window", func(c *Config) { c.UtilWindow = -1 }, "UtilWindow must be >= 0 (0 disables the utilization monitor)"},
		{"negative buffer sampling", func(c *Config) { c.BufferSamplePeriod = -1 }, "BufferSamplePeriod must be >= 0 (0 disables buffer sampling)"},
		{"negative fan-in", func(c *Config) {
			c.Query = &workload.QueryConfig{QPS: 1, Degree: 4, ResponseBytes: 1, MaxFanInPerHost: -1}
		}, "Query.MaxFanInPerHost must be >= 0"},
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
