package netsim

import (
	"testing"

	"dibs/internal/eventq"
)

func cioqConfig() Config {
	cfg := smallConfig()
	cfg.Arch = ArchCIOQ
	cfg.BufferPkts = 32 // dedicated egress queues are small in CIOQ designs
	cfg.MarkAtPkts = 10
	return cfg
}

func TestCIOQNetworkCompletesIncast(t *testing.T) {
	cfg := cioqConfig()
	cfg.OneShot = &OneShot{At: eventq.Millisecond, Senders: 12, FlowsPerSender: 2, Bytes: 20_000}
	cfg.Duration = 30 * eventq.Millisecond
	cfg.Drain = 500 * eventq.Millisecond
	n := Build(cfg)
	r := n.Run()
	if r.QueriesDone != 1 {
		t.Fatalf("CIOQ incast incomplete: %s", r)
	}
	if r.NetworkDrops() != 0 {
		t.Fatalf("CIOQ+DIBS dropped: %s", r)
	}
	if r.Detours == 0 {
		t.Fatal("expected §4 forwarding-engine detours")
	}
	if queuedPackets(n) != 0 {
		t.Fatal("packets stuck in VOQs after drain")
	}
}

func TestCIOQVersusOQSameWorkload(t *testing.T) {
	// Both architectures with DIBS complete the workload losslessly; the
	// crossbar adds modest latency but the headline behavior is the same.
	run := func(arch SwitchArch) *Results {
		cfg := smallConfig()
		if arch == ArchCIOQ {
			cfg = cioqConfig()
		}
		cfg.Query = incastQuery(200, 8, 20_000)
		cfg.Duration = 60 * eventq.Millisecond
		cfg.Drain = 400 * eventq.Millisecond
		return Build(cfg).Run()
	}
	oq := run(ArchOutputQueued)
	ci := run(ArchCIOQ)
	if oq.QueriesDone != oq.QueriesStarted || ci.QueriesDone != ci.QueriesStarted {
		t.Fatalf("incomplete: oq=%s cioq=%s", oq, ci)
	}
	if ci.NetworkDrops() != 0 {
		t.Fatalf("CIOQ dropped: %s", ci)
	}
	t.Logf("QCT99 oq=%.2fms cioq=%.2fms detours oq=%d cioq=%d",
		oq.QCT99, ci.QCT99, oq.Detours, ci.Detours)
}

func TestCIOQWithoutDIBSDropsUnderIncast(t *testing.T) {
	cfg := cioqConfig()
	cfg.DIBS = false
	cfg.OneShot = &OneShot{At: eventq.Millisecond, Senders: 14, FlowsPerSender: 3, Bytes: 20_000}
	cfg.Duration = 30 * eventq.Millisecond
	cfg.Drain = 500 * eventq.Millisecond
	r := Build(cfg).Run()
	if r.TotalDrops == 0 {
		t.Fatalf("CIOQ without DIBS should drop under heavy incast: %s", r)
	}
}

func TestCIOQValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Buffer = BufferInfinite },
		func(c *Config) { c.Arch = "banyan" },
	}
	for i, mutate := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			cfg := cioqConfig()
			mutate(&cfg)
			Build(cfg)
		}()
	}
}
