package cluster

import (
	"testing"

	"parapriori/internal/obsv"
)

// traced returns a cluster recording into a fresh virtual-clock collector.
func traced(p int, m Machine) (*Cluster, *obsv.Collector) {
	c := mustNew(p, m)
	rec := obsv.NewCollector(obsv.ClockVirtual)
	c.SetRecorder(rec)
	return c, rec
}

func TestTraceRecordsEvents(t *testing.T) {
	c, rec := traced(2, fastMachine())
	_ = c.Run(func(p *Proc) error {
		if p.ID() == 0 {
			p.Compute(0.001, "warm")
			p.Send(1, "x", nil, 1000)
		} else {
			p.Recv(0, "x")
		}
		return nil
	})
	spans := rec.Trace().Spans
	if len(spans) == 0 {
		t.Fatal("no slices recorded")
	}
	cats := map[string]int{}
	for _, s := range spans {
		cats[s.Cat]++
		if s.End <= s.Start {
			t.Errorf("slice with non-positive duration: %+v", s)
		}
	}
	if cats[obsv.CatCompute] == 0 || cats[obsv.CatSend] == 0 || cats[obsv.CatIdle] == 0 {
		t.Errorf("missing categories: %v", cats)
	}
}

// TestSliceSpans pins how each kind of timeline slice comes out as a span:
// category per kind, the phase label or message tag as the name (the
// category when unlabelled), the counterpart rank and message size as
// "peer"/"bytes" attributes only when there is one, and zero-length slices
// dropped.
func TestSliceSpans(t *testing.T) {
	rec := obsv.NewCollector(obsv.ClockVirtual)
	p := &Proc{id: 1, rec: rec}
	p.record(obsv.CatCompute, "subset", 0, 1, -1, 0)
	p.record(obsv.CatSend, "ring", 1, 1.5, 0, 256)
	p.record(obsv.CatIdle, "", 1.5, 2, -1, 0)
	p.record(obsv.CatRetry, "backoff", 2, 2.5, 0, 0)
	p.record(obsv.CatDrop, "ring", 3, 3.1, 0, 64)
	p.record(obsv.CatIO, "io", 4, 5, -1, 1<<20)
	p.record(obsv.CatCompute, "nothing", 5, 5, -1, 0)
	spans := rec.Trace().Spans
	want := []struct {
		cat, name, peer, bytes string
	}{
		{obsv.CatCompute, "subset", "", ""},
		{obsv.CatSend, "ring", "0", "256"},
		{obsv.CatIdle, obsv.CatIdle, "", ""},
		{obsv.CatRetry, "backoff", "0", ""},
		{obsv.CatDrop, "ring", "0", "64"},
		{obsv.CatIO, "io", "", "1048576"},
	}
	if len(spans) != len(want) {
		t.Fatalf("got %d spans, want %d: %+v", len(spans), len(want), spans)
	}
	for i, w := range want {
		s := spans[i]
		peer, _ := s.Arg("peer")
		bytes, _ := s.Arg("bytes")
		if s.Rank != 1 || s.Cat != w.cat || s.Name != w.name || peer != w.peer || bytes != w.bytes {
			t.Errorf("span %d = %+v, want cat %q name %q peer %q bytes %q on rank 1", i, s, w.cat, w.name, w.peer, w.bytes)
		}
	}
}

// TestFaultSlices: on a lossy link the reliable layer's retransmission
// backoff and discarded frames come out as retry and drop slices naming the
// peer, next to the nack/ack startups.
func TestFaultSlices(t *testing.T) {
	c, rec := traced(2, fastMachine())
	if err := c.InstallFaults(&FaultPlan{Seed: 1, Drop: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(func(p *Proc) error {
		for i := 0; i < 32; i++ {
			if p.ID() == 0 {
				p.Send(1, "m", i, 100)
			} else {
				p.Recv(0, "m")
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	cats, names := map[string]int{}, map[string]int{}
	var retry float64
	for _, s := range rec.Trace().Spans {
		cats[s.Cat]++
		names[s.Name]++
		if s.Cat == obsv.CatRetry || s.Cat == obsv.CatDrop {
			retry += s.Dur()
			if peer, ok := s.Arg("peer"); s.Rank != 1 || !ok || peer != "0" {
				t.Errorf("%s slice %+v: want rank 1 with peer 0", s.Cat, s)
			}
		}
	}
	if cats[obsv.CatRetry] == 0 || cats[obsv.CatDrop] == 0 || names["nack"] == 0 || names["ack"] == 0 {
		t.Errorf("lossy run recorded categories %v, names %v", cats, names)
	}
	if want := c.TotalStats().RetryTime; retry < want-1e-9 || retry > want+1e-9 {
		t.Errorf("retry+drop slices cover %v, Stats.RetryTime %v", retry, want)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	c := mustNew(1, fastMachine())
	if c.procs[0].rec != nil {
		t.Fatal("new cluster has a recorder installed")
	}
	// With none installed, recording a slice is a no-op, not a nil call.
	_ = c.Run(func(p *Proc) error {
		p.Compute(1, "w")
		return nil
	})
}

func TestTraceClearedByReset(t *testing.T) {
	c, rec := traced(1, fastMachine())
	c.Reset()
	_ = c.Run(func(p *Proc) error {
		p.Compute(1, "w")
		return nil
	})
	if got := rec.Trace().Spans; len(got) != 0 {
		t.Errorf("recorder survived Reset: %d spans", len(got))
	}
}

func TestTraceAccountsWholeClock(t *testing.T) {
	// With a recorder on, compute+io+send+idle slices of one proc must
	// tile its final clock (no unexplained time).
	c, rec := traced(2, fastMachine())
	_ = c.Run(func(p *Proc) error {
		if p.ID() == 0 {
			p.Compute(0.002, "a")
			p.Send(1, "x", nil, 500)
			p.Compute(0.001, "b")
		} else {
			p.Recv(0, "x")
			p.Compute(0.003, "c")
		}
		return nil
	})
	for pid := 0; pid < 2; pid++ {
		var covered float64
		for _, s := range rec.Trace().Spans {
			if s.Rank == pid {
				covered += s.Dur()
			}
		}
		clock := c.procs[pid].Clock()
		if diff := clock - covered; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("proc %d: clock %v, trace covers %v", pid, clock, covered)
		}
	}
}
