package cluster

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"parapriori/internal/obsv"
)

// reliablePair runs a sender → receiver exchange of n sequenced messages
// under the given plan and returns the receiver's messages and stats.
func reliablePair(t *testing.T, plan *FaultPlan, n int) ([]Message, Stats, []float64) {
	t.Helper()
	c := mustNew(2, fastMachine())
	if err := c.InstallFaults(plan); err != nil {
		t.Fatalf("install: %v", err)
	}
	var got []Message
	err := c.Run(func(p *Proc) error {
		if p.ID() == 0 {
			for i := 0; i < n; i++ {
				p.Send(1, "t", i, 100)
				p.Compute(1e-6, "work")
			}
			return nil
		}
		for i := 0; i < n; i++ {
			got = append(got, p.Recv(0, "t"))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return got, c.procs[1].Stats(), c.Clocks()
}

func TestReliableDeliversInOrder(t *testing.T) {
	const n = 40
	cases := []struct {
		name string
		plan FaultPlan
	}{
		{"drop", FaultPlan{Seed: 1, Drop: 0.3}},
		{"dup", FaultPlan{Seed: 2, Dup: 0.5}},
		{"reorder", FaultPlan{Seed: 3, Reorder: 0.5}},
		{"delay", FaultPlan{Seed: 4, Delay: 0.5, DelaySeconds: 1e-3}},
		{"everything", FaultPlan{Seed: 5, Drop: 0.2, Dup: 0.3, Reorder: 0.3, Delay: 0.2, DelaySeconds: 1e-4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, st, _ := reliablePair(t, &tc.plan, n)
			if len(got) != n {
				t.Fatalf("received %d messages, want %d", len(got), n)
			}
			for i, m := range got {
				if m.Payload.(int) != i {
					t.Fatalf("message %d carries payload %v: delivery out of order", i, m.Payload)
				}
			}
			switch tc.name {
			case "drop":
				if st.MessagesDropped == 0 || st.MessagesRetried == 0 || st.RetryTime <= 0 {
					t.Errorf("drop plan produced no retry accounting: %+v", st)
				}
			case "dup":
				if st.DupsSuppressed == 0 {
					t.Errorf("dup plan suppressed no duplicates: %+v", st)
				}
			}
		})
	}
}

func TestReliableFaultDeterminism(t *testing.T) {
	plan := FaultPlan{Seed: 99, Drop: 0.25, Dup: 0.25, Reorder: 0.25, Delay: 0.25, DelaySeconds: 5e-4}
	g1, s1, c1 := reliablePair(t, &plan, 60)
	g2, s2, c2 := reliablePair(t, &plan, 60)
	if len(g1) != len(g2) {
		t.Fatalf("different message counts: %d vs %d", len(g1), len(g2))
	}
	for i := range g1 {
		if g1[i].Payload != g2[i].Payload {
			t.Fatalf("message %d differs across identical runs", i)
		}
	}
	if s1.RetryTime != s2.RetryTime || s1.MessagesRetried != s2.MessagesRetried ||
		s1.MessagesDropped != s2.MessagesDropped || s1.DupsSuppressed != s2.DupsSuppressed {
		t.Errorf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Errorf("proc %d clock differs: %v vs %v", i, c1[i], c2[i])
		}
	}
}

func TestReliableNoPlanIsPlain(t *testing.T) {
	// Without a plan a send/receive pair charges latency plus transfer and
	// allocates no sequencing state; an installed plan that injects nothing
	// adds exactly the receiver's ack startup.
	run := func(plan *FaultPlan) (Stats, float64, bool) {
		c := mustNew(2, fastMachine())
		if err := c.InstallFaults(plan); err != nil {
			t.Fatal(err)
		}
		err := c.Run(func(p *Proc) error {
			if p.ID() == 0 {
				p.Send(1, "t", 42, 1000)
				return nil
			}
			p.Recv(0, "t")
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return c.procs[1].Stats(), c.MaxClock(), c.procs[0].sendSeq != nil
	}
	m := fastMachine()
	sp, cp, seqp := run(nil)
	if want := m.Latency + m.transferTime(1000, 1); cp != want {
		t.Errorf("plain clock %v, want latency + transfer = %v", cp, want)
	}
	if seqp || sp.RetryTime != 0 || sp.SendTime != 0 {
		t.Errorf("no plan, yet the reliable layer ran: sequenced=%v stats=%+v", seqp, sp)
	}
	se, ce, seqe := run(&FaultPlan{})
	if !seqe {
		t.Error("a frame sent under a plan was not sequenced")
	}
	if ce != cp+m.Latency || se.SendTime != m.Latency || se.IdleTime != sp.IdleTime || se.RetryTime != 0 {
		t.Errorf("empty plan should add one ack startup: clock %v vs %v, stats %+v vs %+v", ce, cp, se, sp)
	}
}

func TestRetryExhaustionDeclaresPeerDead(t *testing.T) {
	// Drop close to 1 with few retries: the receiver must give up with a
	// typed DeadRankError rather than hang.
	plan := FaultPlan{Seed: 7, Drop: 0.999, Reliable: ReliableConfig{MaxRetries: 2}}
	c := mustNew(2, fastMachine())
	if err := c.InstallFaults(&plan); err != nil {
		t.Fatal(err)
	}
	err := c.Run(func(p *Proc) error {
		if p.ID() == 0 {
			p.Send(1, "t", 1, 100)
			return nil
		}
		p.Recv(0, "t")
		return nil
	})
	var de *DeadRankError
	if !errors.As(err, &de) {
		t.Fatalf("want DeadRankError, got %v", err)
	}
	if !de.RetriesExhausted || de.Peer != 0 || de.Rank != 1 {
		t.Errorf("unexpected error detail: %+v", de)
	}
}

func TestCrashTerminatesAndSurfaces(t *testing.T) {
	// Rank 1 crashes at virtual time 5; rank 0 blocks receiving from it and
	// must get a DeadRankError instead of deadlocking, and the run must
	// report the CrashError for rank 1.
	c := mustNew(2, fastMachine())
	plan := FaultPlan{Crashes: []Crash{{Rank: 1, At: 5}}}
	if err := c.InstallFaults(&plan); err != nil {
		t.Fatal(err)
	}
	err := c.Run(func(p *Proc) error {
		if p.ID() == 1 {
			p.Compute(10, "work") // crosses the crash time
			p.Send(0, "t", 1, 100)
			return nil
		}
		p.Recv(1, "t")
		return nil
	})
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want CrashError in %v", err)
	}
	if ce.Rank != 1 || ce.At != 5 || ce.Clock < 5 {
		t.Errorf("unexpected crash detail: %+v", ce)
	}
	var de *DeadRankError
	if !errors.As(err, &de) {
		t.Fatalf("want DeadRankError for the blocked receiver in %v", err)
	}
}

func TestStragglerSlowsCompute(t *testing.T) {
	run := func(plan *FaultPlan) float64 {
		c := mustNew(1, fastMachine())
		if err := c.InstallFaults(plan); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(func(p *Proc) error {
			for i := 0; i < 10; i++ {
				p.Compute(1, "work")
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return c.MaxClock()
	}
	base := run(&FaultPlan{})
	slow := run(&FaultPlan{Stragglers: []Straggler{{Rank: 0, At: 5, Factor: 3}}})
	if base != 10 {
		t.Fatalf("baseline clock %v, want 10", base)
	}
	// Five seconds at full speed, then five 1s charges slowed 3x.
	if slow != 5+15 {
		t.Errorf("straggler clock %v, want 20", slow)
	}
}

func TestRecvFromDeadPeerErrorsInsteadOfDeadlock(t *testing.T) {
	c := mustNew(2, fastMachine())
	err := c.Run(func(p *Proc) error {
		if p.ID() == 0 {
			return nil // never sends
		}
		p.Recv(0, "t") // would deadlock forever before the fault layer
		return nil
	})
	var de *DeadRankError
	if !errors.As(err, &de) {
		t.Fatalf("want DeadRankError, got %v", err)
	}
	if de.Peer != 0 || de.RetriesExhausted {
		t.Errorf("unexpected detail: %+v", de)
	}
}

func TestTagMismatchTypedError(t *testing.T) {
	c := mustNew(2, fastMachine())
	err := c.Run(func(p *Proc) error {
		if p.ID() == 0 {
			p.Send(1, "actual", 1, 10)
			return nil
		}
		p.Recv(0, "expected")
		return nil
	})
	var te *TagMismatchError
	if !errors.As(err, &te) {
		t.Fatalf("want TagMismatchError, got %v", err)
	}
	if te.Want != "expected" || te.Got != "actual" || te.Rank != 1 {
		t.Errorf("unexpected detail: %+v", te)
	}
}

func TestResetAfterFaultedRun(t *testing.T) {
	// A faulted run leaves crashed ranks, queued messages and termination
	// flags behind; Reset must restore a fully working cluster.
	c := mustNew(2, fastMachine())
	plan := FaultPlan{Crashes: []Crash{{Rank: 1, At: 0.5}}}
	if err := c.InstallFaults(&plan); err != nil {
		t.Fatal(err)
	}
	c.SetRecorder(obsv.NewCollector(obsv.ClockVirtual))
	err := c.Run(func(p *Proc) error {
		if p.ID() == 0 {
			p.Send(1, "t", 1, 10) // never consumed: rank 1 crashes first
			return nil
		}
		p.Compute(1, "work")
		p.Recv(0, "t")
		return nil
	})
	if err == nil {
		t.Fatal("expected the crash to surface")
	}
	c.Reset()
	if c.MaxClock() != 0 {
		t.Fatalf("clock after Reset = %v", c.MaxClock())
	}
	if c.procs[0].rec != nil || c.procs[1].rec != nil {
		t.Fatal("recorder survived Reset")
	}
	// The crash entry must not re-fire (the plan was uninstalled) and the
	// queued message must be gone.
	err = c.Run(func(p *Proc) error {
		if p.ID() == 0 {
			p.Send(1, "fresh", 2, 10)
			return nil
		}
		msg := p.Recv(0, "fresh")
		if msg.Payload.(int) != 2 {
			return fmt.Errorf("stale message leaked: %v", msg.Payload)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("cluster unusable after Reset: %v", err)
	}
}

func TestResetCommPreservesClocksAndCrashSchedule(t *testing.T) {
	c := mustNew(2, fastMachine())
	plan := FaultPlan{Crashes: []Crash{{Rank: 1, At: 0.5}}}
	if err := c.InstallFaults(&plan); err != nil {
		t.Fatal(err)
	}
	err := c.Run(func(p *Proc) error {
		p.Compute(1, "work")
		return nil
	})
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want CrashError, got %v", err)
	}
	clock1 := c.procs[1].Clock()
	c.ResetComm()
	// Clocks survive; the fired crash entry does not re-fire.
	if c.procs[1].Clock() != clock1 {
		t.Fatalf("ResetComm changed clocks")
	}
	if err := c.Run(func(p *Proc) error {
		p.Compute(1, "work")
		return nil
	}); err != nil {
		t.Fatalf("crash entry re-fired after ResetComm: %v", err)
	}
}

func TestInstallFaultsValidation(t *testing.T) {
	c := mustNew(2, fastMachine())
	bad := []FaultPlan{
		{Drop: 1.5},
		{Drop: -0.1},
		{Reorder: 1},
		{Crashes: []Crash{{Rank: 5, At: 1}}},
		{Crashes: []Crash{{Rank: 0, At: -1}}},
		{Stragglers: []Straggler{{Rank: 0, At: 0, Factor: 0.5}}},
		{Drop: math.NaN()},
		{Dup: math.NaN()},
		{Delay: math.NaN()},
		{Reorder: math.NaN()},
		{Dup: math.Inf(1)},
		{Delay: 0.5, DelaySeconds: math.NaN()},
		{Crashes: []Crash{{Rank: 0, At: math.NaN()}}},
		{Stragglers: []Straggler{{Rank: 0, At: 0, Factor: math.NaN()}}},
	}
	for i, plan := range bad {
		if err := c.InstallFaults(&plan); err == nil {
			t.Errorf("case %d: plan %+v accepted", i, plan)
		}
	}
}

// TestFaultyCollectives drives the real collectives (reduce, all-gather,
// barrier) through a lossy plan: they must still produce correct results.
func TestFaultyCollectives(t *testing.T) {
	const p = 4
	c := mustNew(p, fastMachine())
	plan := FaultPlan{Seed: 11, Drop: 0.2, Dup: 0.2, Reorder: 0.2}
	if err := c.InstallFaults(&plan); err != nil {
		t.Fatal(err)
	}
	world := c.World()
	sums := make([][]int64, p)
	err := c.Run(func(pr *Proc) error {
		vec := []int64{int64(pr.ID()), 1, int64(pr.ID() * 10)}
		sums[pr.ID()] = world.AllReduceInt64(pr, "red", vec)
		world.AllReduceInt64(pr, "bar", []int64{0})
		gathered := world.AllGather(pr, "gather", pr.ID()*100, 8)
		for rank, g := range gathered {
			if g.Payload.(int) != rank*100 {
				return fmt.Errorf("proc %d: gathered[%d] = %v", pr.ID(), rank, g.Payload)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0 + 1 + 2 + 3, p, (0 + 1 + 2 + 3) * 10}
	for rank, got := range sums {
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("proc %d: reduce[%d] = %d, want %d", rank, i, got[i], want[i])
			}
		}
	}
	if st := c.TotalStats(); st.MessagesDropped == 0 {
		t.Errorf("lossy plan dropped nothing; plan not exercised")
	}
}

// FuzzSeqDedup feeds adversarial frame schedules (drop/dup/reorder rates
// and seeds) through the reliable layer and asserts exactly-once, in-order
// delivery.  The sender rotates through the three send kinds, so contended
// and blocking frames are sequenced, duplicated and tombstoned too.
func FuzzSeqDedup(f *testing.F) {
	f.Add(uint64(1), 0.2, 0.3, 0.3, 20)
	f.Add(uint64(42), 0.0, 0.9, 0.0, 8)
	f.Add(uint64(7), 0.4, 0.0, 0.9, 15)
	f.Fuzz(func(t *testing.T, seed uint64, drop, dup, reorder float64, n int) {
		if drop < 0 || drop > 0.6 || dup < 0 || dup >= 1 || reorder < 0 || reorder >= 1 {
			t.Skip("rates out of the supported range")
		}
		if n < 1 || n > 200 {
			t.Skip("message count out of range")
		}
		plan := FaultPlan{Seed: seed, Drop: drop, Dup: dup, Reorder: reorder,
			Reliable: ReliableConfig{MaxRetries: 12}}
		c := mustNew(2, fastMachine())
		if err := c.InstallFaults(&plan); err != nil {
			t.Fatal(err)
		}
		var got []int
		err := c.Run(func(p *Proc) error {
			if p.ID() == 0 {
				for i := 0; i < n; i++ {
					switch i % 3 {
					case 0:
						p.Send(1, "t", i, 50)
					case 1:
						p.SendContended(1, "t", i, 50, 3)
					case 2:
						p.SendBlocking(1, "t", i, 50, 2)
					}
				}
				return nil
			}
			for i := 0; i < n; i++ {
				got = append(got, p.Recv(0, "t").Payload.(int))
			}
			return nil
		})
		if err != nil {
			var de *DeadRankError
			if errors.As(err, &de) && de.RetriesExhausted {
				return // legitimate under extreme drop rates
			}
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("received %d, want %d", len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("payload %d at position %d: duplicate or reorder leaked through", v, i)
			}
		}
	})
}
