package switching

import (
	"math/rand"
	"testing"

	"dibs/internal/core"
	"dibs/internal/eventq"
	"dibs/internal/packet"
	"dibs/internal/queue"
	"dibs/internal/topology"
)

func TestOutPortPauseResume(t *testing.T) {
	sched := eventq.NewScheduler()
	sink := &capture{sched: sched}
	op := NewOutPort(sched, queue.NewDropTail(10, 0), 1_000_000_000, 0, sink, 0)
	op.SetPaused(true)
	op.Enqueue(dataPkt(1, 0, 64))
	sched.RunUntil(100 * eventq.Microsecond)
	if len(sink.pkts) != 0 {
		t.Fatal("paused port transmitted")
	}
	if !op.Paused() {
		t.Fatal("Paused() should report true")
	}
	op.SetPaused(false)
	sched.Run()
	if len(sink.pkts) != 1 {
		t.Fatal("resume did not restart transmission")
	}
	if op.PausedTime != 100*eventq.Microsecond {
		t.Fatalf("PausedTime = %v", op.PausedTime)
	}
	// Redundant transitions are no-ops.
	op.SetPaused(false)
	op.SetPaused(true)
	op.SetPaused(true)
}

func TestPauseDoesNotAbortInFlight(t *testing.T) {
	sched := eventq.NewScheduler()
	sink := &capture{sched: sched}
	op := NewOutPort(sched, queue.NewDropTail(10, 0), 1_000_000_000, 0, sink, 0)
	op.Enqueue(dataPkt(1, 0, 64)) // starts 12us serialization
	op.Enqueue(dataPkt(2, 0, 64)) // queued
	sched.At(6*eventq.Microsecond, func() { op.SetPaused(true) })
	sched.RunUntil(eventq.Millisecond)
	// The in-flight packet completes; the queued one stays.
	if len(sink.pkts) != 1 || sink.pkts[0].Flow != 1 {
		t.Fatalf("in-flight packet mishandled: %d delivered", len(sink.pkts))
	}
	op.SetPaused(false)
	sched.Run()
	if len(sink.pkts) != 2 {
		t.Fatal("queued packet lost across pause")
	}
}

func TestOnEnqueueDequeueHooks(t *testing.T) {
	sched := eventq.NewScheduler()
	op := NewOutPort(sched, queue.NewDropTail(10, 0), 1_000_000_000, 0, &capture{sched: sched}, 0)
	var enq, deq []packet.FlowID
	op.OnEnqueue = func(p *packet.Packet) { enq = append(enq, p.Flow) }
	op.OnDequeue = func(p *packet.Packet) { deq = append(deq, p.Flow) }
	op.Enqueue(dataPkt(1, 0, 64))
	op.Enqueue(dataPkt(2, 0, 64))
	sched.Run()
	if len(enq) != 2 || len(deq) != 2 {
		t.Fatalf("hooks: enq=%v deq=%v", enq, deq)
	}
	// Enqueue hook for packet 1 must run before its dequeue hook.
	if enq[0] != 1 || deq[0] != 1 {
		t.Fatal("hook ordering broken")
	}
}

// buildPFCSwitch wires a PFC-enabled switch over the Click topology with a
// recording pause function.
func buildPFCSwitch(t *testing.T, xoff, xon int) (*Switch, *topology.Topology, map[int]*capture, *eventq.Scheduler, *[]string) {
	t.Helper()
	topo := topology.ClickTestbed(topology.DefaultLink)
	sched := eventq.NewScheduler()
	sw := topo.Switches()[2]
	caps := make(map[int]*capture)
	var ports []*OutPort
	for pi, p := range topo.Ports(sw) {
		c := &capture{sched: sched}
		caps[pi] = c
		ports = append(ports, NewOutPort(sched, queue.NewDropTail(1000, 0), p.RateBps, p.Delay, c, p.PeerPort))
	}
	s := NewSwitch(sw, topo, ports, nil, rand.New(rand.NewSource(7)), nil)
	var events []string
	s.EnablePFC(PFCConfig{
		Xoff: xoff,
		Xon:  xon,
		Pause: func(inPort int, paused bool) {
			if paused {
				events = append(events, "pause")
			} else {
				events = append(events, "resume")
			}
		},
	})
	return s, topo, caps, sched, &events
}

func TestPFCPausesAtXoffResumesAtXon(t *testing.T) {
	s, topo, _, sched, events := buildPFCSwitch(t, 5, 3)
	host := topo.Hosts()[0]
	// 8 packets arrive back-to-back at t=0 via input port 0 toward the
	// host; queue builds (transmitter drains 1 per 12us).
	for i := 0; i < 8; i++ {
		s.Receive(dataPkt(packet.FlowID(i), host, 64), 0)
	}
	if len(*events) == 0 || (*events)[0] != "pause" {
		t.Fatalf("no pause at Xoff: %v", *events)
	}
	if s.PFCPausesSent() != 1 {
		t.Fatalf("pauses sent = %d", s.PFCPausesSent())
	}
	sched.Run()
	// Queue fully drained: resume must have been sent.
	last := (*events)[len(*events)-1]
	if last != "resume" {
		t.Fatalf("no resume after drain: %v", *events)
	}
}

func TestPFCPerIngressAccounting(t *testing.T) {
	s, topo, _, sched, events := buildPFCSwitch(t, 5, 3)
	host := topo.Hosts()[0]
	// 4 packets from ingress 0, 4 from ingress 1: neither crosses Xoff=5.
	for i := 0; i < 4; i++ {
		s.Receive(dataPkt(packet.FlowID(i), host, 64), 0)
		s.Receive(dataPkt(packet.FlowID(100+i), host, 64), 1)
	}
	if len(*events) != 0 {
		t.Fatalf("pause despite per-ingress counts below Xoff: %v", *events)
	}
	sched.Run()
}

func TestPFCConfigValidation(t *testing.T) {
	topo := topology.ClickTestbed(topology.DefaultLink)
	sched := eventq.NewScheduler()
	mk := func() *Switch {
		sw := topo.Switches()[2]
		var ports []*OutPort
		for _, p := range topo.Ports(sw) {
			ports = append(ports, NewOutPort(sched, queue.NewDropTail(10, 0), p.RateBps, p.Delay, &capture{sched: sched}, p.PeerPort))
		}
		return NewSwitch(sw, topo, ports, nil, rand.New(rand.NewSource(1)), nil)
	}
	cases := []PFCConfig{
		{Xoff: 0, Xon: 0, Pause: func(int, bool) {}},
		{Xoff: 5, Xon: 5, Pause: func(int, bool) {}},
		{Xoff: 5, Xon: 6, Pause: func(int, bool) {}},
		{Xoff: 5, Xon: 3, Pause: nil},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			mk().EnablePFC(cfg)
		}()
	}
	// PFC + DIBS is rejected.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("PFC on a DIBS switch should panic")
			}
		}()
		sw := topo.Switches()[2]
		var ports []*OutPort
		for _, p := range topo.Ports(sw) {
			ports = append(ports, NewOutPort(sched, queue.NewDropTail(10, 0), p.RateBps, p.Delay, &capture{sched: sched}, p.PeerPort))
		}
		s := NewSwitch(sw, topo, ports, &fakePolicy{}, rand.New(rand.NewSource(1)), nil)
		s.EnablePFC(PFCConfig{Xoff: 5, Xon: 3, Pause: func(int, bool) {}})
	}()
	// PFC and a CIOQ ingress stage are rejected in either order.
	good := PFCConfig{Xoff: 5, Xon: 3, Pause: func(int, bool) {}}
	for name, enable := range map[string]func(*Switch){
		"PFC on a CIOQ switch": func(s *Switch) { s.EnableCIOQ(sched, DefaultCIOQ); s.EnablePFC(good) },
		"CIOQ on a PFC switch": func(s *Switch) { s.EnablePFC(good); s.EnableCIOQ(sched, DefaultCIOQ) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			enable(mk())
		}()
	}
}

type fakePolicy struct{}

func (*fakePolicy) Name() string { return "fake" }
func (*fakePolicy) SelectDetour(sw core.SwitchView, p *packet.Packet, desired int, rng *rand.Rand) int {
	return -1
}
