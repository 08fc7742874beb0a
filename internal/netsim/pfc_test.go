package netsim

import (
	"testing"

	"dibs/internal/eventq"
)

func pfcConfig() Config {
	cfg := smallConfig()
	cfg.DIBS = false
	cfg.Buffer = BufferShared
	cfg.PFC = true
	return cfg
}

func TestPFCAbsorbsIncastWithoutLoss(t *testing.T) {
	cfg := pfcConfig()
	cfg.OneShot = &OneShot{At: eventq.Millisecond, Senders: 12, FlowsPerSender: 6, Bytes: 20_000}
	cfg.Duration = 30 * eventq.Millisecond
	cfg.Drain = 500 * eventq.Millisecond
	r := Build(cfg).Run()
	if r.QueriesDone != 1 {
		t.Fatalf("incast incomplete under PFC: %s", r)
	}
	if r.TotalDrops != 0 {
		t.Fatalf("PFC should be lossless for this burst: %s", r)
	}
	if r.PFCPauses == 0 {
		t.Fatal("incast should have triggered PAUSE frames")
	}
	if r.Detours != 0 {
		t.Fatal("PFC run must not detour")
	}
}

func TestPFCVersusDIBSHeadOfLineBlocking(t *testing.T) {
	// Under incast plus background, PFC's cascading pauses delay innocent
	// flows sharing paused links (head-of-line blocking); DIBS moves the
	// excess away instead. Both avoid loss; compare victim FCT.
	run := func(pfc bool) *Results {
		var cfg Config
		if pfc {
			cfg = pfcConfig()
		} else {
			cfg = smallConfig()
		}
		cfg.Seed = 5
		cfg.BGInterarrival = 10 * eventq.Millisecond
		cfg.OneShot = &OneShot{At: 5 * eventq.Millisecond, Senders: 12, FlowsPerSender: 3, Bytes: 20_000}
		cfg.Duration = 60 * eventq.Millisecond
		cfg.Drain = 500 * eventq.Millisecond
		return Build(cfg).Run()
	}
	pfc := run(true)
	dibs := run(false)
	if pfc.QueriesDone != 1 || dibs.QueriesDone != 1 {
		t.Fatalf("incast incomplete: pfc=%s dibs=%s", pfc, dibs)
	}
	if pfc.TotalDrops != 0 {
		t.Logf("PFC dropped %d (shared pool exhausted)", pfc.TotalDrops)
	}
	if dibs.NetworkDrops() != 0 {
		t.Fatalf("DIBS dropped: %s", dibs)
	}
	t.Logf("QCT99 pfc=%.2fms dibs=%.2fms; shortFCT99 pfc=%.2fms dibs=%.2fms; pauses=%d",
		pfc.QCT99, dibs.QCT99, pfc.ShortFCT99, dibs.ShortFCT99, pfc.PFCPauses)
}

func TestPFCValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.DIBS = true },             // PFC+DIBS
		func(c *Config) { c.Buffer = BufferDropTail }, // needs shared
	}
	for i, mutate := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			cfg := pfcConfig()
			mutate(&cfg)
			Build(cfg)
		}()
	}
}
