package netsim

import (
	"strings"
	"testing"
)

// validateMsg returns the text of Validate's joined error, one violation
// per line, or "" if cfg is valid.
func validateMsg(cfg Config) string {
	if err := cfg.Validate(); err != nil {
		return err.Error()
	}
	return ""
}

// The sharding gate must name the specific offending options — all of
// them at once — not just reject the config with a generic message. The
// instruments record per shard and are never an offender: set beside a
// real one, they must not be blamed.
func TestValidateShardingNamesOffenders(t *testing.T) {
	noLookahead := func(c *Config) { c.LinkDelay = 0 }
	cases := []struct {
		name    string
		mutate  func(c *Config)
		want    []string // substrings the error must contain
		wantNot []string // options that must not be blamed
	}{
		{
			name:    "trace events",
			mutate:  func(c *Config) { noLookahead(c); c.TraceEvents = true },
			want:    []string{"LinkDelay"},
			wantNot: []string{"TraceEvents"},
		},
		{
			name:    "packet tracing",
			mutate:  func(c *Config) { noLookahead(c); c.TraceEveryNth = 10 },
			want:    []string{"LinkDelay"},
			wantNot: []string{"TraceEveryNth"},
		},
		{
			name:    "util monitor",
			mutate:  func(c *Config) { noLookahead(c); c.UtilWindow = 100 },
			want:    []string{"LinkDelay"},
			wantNot: []string{"UtilWindow"},
		},
		{
			name:    "buffer monitor",
			mutate:  func(c *Config) { noLookahead(c); c.BufferSamplePeriod = 100 },
			want:    []string{"LinkDelay"},
			wantNot: []string{"BufferSamplePeriod"},
		},
		{
			name: "all instrumentation at once",
			mutate: func(c *Config) {
				noLookahead(c)
				c.TraceEvents = true
				c.TraceEveryNth = 10
				c.UtilWindow = 100
				c.BufferSamplePeriod = 100
			},
			want:    []string{"LinkDelay"},
			wantNot: []string{"TraceEvents", "TraceEveryNth", "UtilWindow", "BufferSamplePeriod"},
		},
		{
			name: "pfc",
			mutate: func(c *Config) {
				c.DIBS = false
				c.Buffer = BufferShared
				c.PFC = true
			},
			want:    []string{"PFC", "lookahead"},
			wantNot: []string{"LinkDelay"},
		},
		{
			name:   "zero link delay",
			mutate: func(c *Config) { c.LinkDelay = 0 },
			want:   []string{"LinkDelay", "lookahead"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.Shards = 2
			tc.mutate(&cfg)
			msg := validateMsg(cfg)
			if msg == "" {
				t.Fatal("Validate accepted an unshardable config")
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

func TestValidateShardingAcceptsCleanConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Shards = 4
	if msg := validateMsg(cfg); msg != "" {
		t.Fatalf("clean sharded config rejected: %s", msg)
	}
	// Every instrument records per shard.
	cfg.TraceEvents = true
	cfg.TraceEveryNth = 10
	cfg.UtilWindow = 100
	cfg.BufferSamplePeriod = 100
	if msg := validateMsg(cfg); msg != "" {
		t.Fatalf("sharded instrumentation rejected: %s", msg)
	}
	// PFC is fine unsharded.
	cfg = smallConfig()
	cfg.TraceEvents = true
	cfg.DIBS = false
	cfg.Buffer = BufferShared
	cfg.PFC = true
	if msg := validateMsg(cfg); msg != "" {
		t.Fatalf("unsharded instrumentation rejected: %s", msg)
	}
}
