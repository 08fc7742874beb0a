package dibs_test

import (
	"math"
	"testing"

	"dibs"
	"dibs/internal/transport"
)

func TestDefaultConfigMatchesPaperTable1(t *testing.T) {
	cfg := dibs.DefaultConfig()
	if cfg.LinkRate != 1_000_000_000 {
		t.Errorf("link rate = %d, Table 1 says 1 Gbps", cfg.LinkRate)
	}
	if cfg.BufferPkts != 100 {
		t.Errorf("buffer = %d pkts, Table 1 says 100", cfg.BufferPkts)
	}
	if cfg.MinRTO != 10*dibs.Millisecond {
		t.Errorf("minRTO = %v, Table 1 says 10ms", cfg.MinRTO)
	}
	if w := transport.NewSender(transport.Env{}, transport.DefaultConfig(cfg.Transport), 1, 1, 2, 1).Cwnd(); w != 10 {
		t.Errorf("initial cwnd = %v, Table 1 says 10", w)
	}
	if cfg.DupAckThresh != 0 {
		t.Errorf("fast retransmit should be disabled (Table 1)")
	}
	if cfg.MarkAtPkts != 20 {
		t.Errorf("ECN marking threshold = %d, §5.3 says 20", cfg.MarkAtPkts)
	}
	if cfg.FatTreeK != 8 {
		t.Errorf("fat-tree K = %d, §5.3 says 8", cfg.FatTreeK)
	}
	if cfg.Query == nil || cfg.Query.QPS != 300 || cfg.Query.Degree != 40 ||
		cfg.Query.ResponseBytes != 20_000 {
		t.Errorf("query defaults = %+v, Table 2 says 300qps/40/20KB", cfg.Query)
	}
	if cfg.BGInterarrival != 120*dibs.Millisecond {
		t.Errorf("BG inter-arrival = %v, Table 2 says 120ms", cfg.BGInterarrival)
	}
	if cfg.TTL != 255 {
		t.Errorf("TTL = %d, Table 2 default is 255", cfg.TTL)
	}
	if !cfg.DIBS || cfg.Policy != dibs.PolicyRandom {
		t.Error("default should enable DIBS with the random policy")
	}
	if cfg.Transport != dibs.DCTCP {
		t.Error("default transport should be DCTCP")
	}
}

func TestPublicAPIRoundTrip(t *testing.T) {
	cfg := dibs.DefaultConfig()
	cfg.FatTreeK = 4
	cfg.Duration = 40 * dibs.Millisecond
	cfg.Drain = 200 * dibs.Millisecond
	cfg.BGInterarrival = 0
	cfg.Query = &dibs.QueryConfig{QPS: 200, Degree: 8, ResponseBytes: 20_000}
	res := dibs.Run(cfg)
	if res.QueriesStarted == 0 {
		t.Fatal("no queries ran")
	}
	if res.QueriesDone != res.QueriesStarted {
		t.Fatalf("%d/%d queries done", res.QueriesDone, res.QueriesStarted)
	}
	if math.IsNaN(res.QCT99) || res.QCT99 <= 0 {
		t.Fatalf("QCT99 = %v", res.QCT99)
	}
	if res.NetworkDrops() != 0 {
		t.Fatalf("DIBS run dropped %d packets", res.NetworkDrops())
	}
}

func TestBuildExposesNetwork(t *testing.T) {
	cfg := dibs.DefaultConfig()
	cfg.FatTreeK = 4
	cfg.BGInterarrival = 0
	cfg.Query = nil
	cfg.Duration = 20 * dibs.Millisecond
	n := dibs.Build(cfg)
	if len(n.Topo.Hosts()) != 16 {
		t.Fatalf("hosts = %d", len(n.Topo.Hosts()))
	}
	if n.Sched.Now() != 0 {
		t.Fatal("clock should start at zero")
	}
}

func TestDurationHelper(t *testing.T) {
	if dibs.Duration(0) != 0 {
		t.Fatal("Duration(0)")
	}
	if got := dibs.Duration(1_500_000); got != eventqMs(1.5) {
		t.Fatalf("Duration = %v", got)
	}
}

func eventqMs(ms float64) dibs.Time { return dibs.Time(ms * float64(dibs.Millisecond)) }

func TestWebSearchBackgroundExported(t *testing.T) {
	if dibs.WebSearchBackground() == nil {
		t.Fatal("distribution missing")
	}
}
