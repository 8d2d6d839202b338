package cluster

import (
	"fmt"
	"testing"
)

func TestAllReduceSums(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
		c := mustNew(p, fastMachine())
		world := c.World()
		results := make([][]int64, p)
		err := c.Run(func(pr *Proc) error {
			vec := []int64{int64(pr.ID()), 1, int64(pr.ID() * 10)}
			results[pr.ID()] = world.AllReduceInt64(pr, "t", vec)
			return nil
		})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		wantSum := int64(p * (p - 1) / 2)
		for i, got := range results {
			if got[0] != wantSum || got[1] != int64(p) || got[2] != wantSum*10 {
				t.Errorf("P=%d proc %d: %v", p, i, got)
			}
		}
	}
}

// TestAllReduceDoesNotMutateInput runs on a pair and on a singleton
// communicator.  The singleton hands the input back as the sum, uncopied.
func TestAllReduceDoesNotMutateInput(t *testing.T) {
	for _, p := range []int{1, 2} {
		c := mustNew(p, fastMachine())
		world := c.World()
		err := c.Run(func(pr *Proc) error {
			vec := []int64{5}
			sum := world.AllReduceInt64(pr, "t", vec)
			if vec[0] != 5 {
				return fmt.Errorf("input mutated: %v", vec)
			}
			if want := int64(5 * p); sum[0] != want {
				return fmt.Errorf("sum %v, want %d", sum, want)
			}
			if aliased := &sum[0] == &vec[0]; aliased != (p == 1) {
				return fmt.Errorf("result shares the input: %v, want %v", aliased, p == 1)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
	}
}

func TestAllGatherDeliversAll(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		c := mustNew(p, fastMachine())
		world := c.World()
		results := make([][]Gathered, p)
		err := c.Run(func(pr *Proc) error {
			payload := fmt.Sprintf("from-%d", pr.ID())
			results[pr.ID()] = world.AllGather(pr, "g", payload, len(payload))
			return nil
		})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		for i, got := range results {
			if len(got) != p {
				t.Fatalf("P=%d proc %d: %d blocks", p, i, len(got))
			}
			for rank, g := range got {
				want := fmt.Sprintf("from-%d", rank)
				if g.Payload.(string) != want {
					t.Errorf("P=%d proc %d rank %d: %v", p, i, rank, g.Payload)
				}
				if g.Rank != rank {
					t.Errorf("P=%d proc %d: block %d has Rank %d", p, i, rank, g.Rank)
				}
			}
		}
	}
}

// TestBarrierSynchronizesClocks: a one-word AllReduceInt64 is the barrier —
// every member leaves at least at the latest member's entry clock.
func TestBarrierSynchronizesClocks(t *testing.T) {
	c := mustNew(4, fastMachine())
	world := c.World()
	err := c.Run(func(pr *Proc) error {
		pr.Compute(float64(pr.ID()), "skew") // clocks 0..3
		world.AllReduceInt64(pr, "b", []int64{0})
		if pr.Clock() < 3 {
			return fmt.Errorf("proc %d clock %v below barrier max", pr.ID(), pr.Clock())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubCommunicators(t *testing.T) {
	// A 2x2 grid: row comms {0,1} and {2,3}, column comms {0,2} and {1,3}.
	c := mustNew(4, fastMachine())
	results := make([][]int64, 4)
	err := c.Run(func(pr *Proc) error {
		row := pr.ID() / 2
		members := []int{row * 2, row*2 + 1}
		comm, err := NewComm(c, members)
		if err != nil {
			return err
		}
		results[pr.ID()] = comm.AllReduceInt64(pr, "row", []int64{int64(pr.ID())})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0][0] != 1 || results[1][0] != 1 {
		t.Errorf("row 0 sums: %v %v", results[0], results[1])
	}
	if results[2][0] != 5 || results[3][0] != 5 {
		t.Errorf("row 1 sums: %v %v", results[2], results[3])
	}
}

func TestNewCommValidation(t *testing.T) {
	c := mustNew(4, fastMachine())
	if _, err := NewComm(c, nil); err == nil {
		t.Error("empty communicator accepted")
	}
	if _, err := NewComm(c, []int{0, 0}); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := NewComm(c, []int{0, 9}); err == nil {
		t.Error("out-of-range member accepted")
	}
}

func TestRankLookup(t *testing.T) {
	c := mustNew(4, fastMachine())
	comm, err := NewComm(c, []int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if comm.Size() != 2 {
		t.Errorf("Size = %d", comm.Size())
	}
	if comm.Rank(c.procs[3]) != 0 || comm.Rank(c.procs[1]) != 1 {
		t.Error("rank mapping wrong")
	}
	if comm.Rank(c.procs[0]) != -1 {
		t.Error("non-member should rank -1")
	}
	if comm.Member(0) != 3 || comm.Member(1) != 1 {
		t.Error("Member mapping wrong")
	}
}

// Note: there is deliberately no test for mismatched AllReduce vector
// lengths.  That invariant violation panics on the receiving processor,
// and — as on a real message-passing machine — peers that were waiting for
// its messages then block forever; Run has no cross-processor cancellation.
// The panic message is the debugging aid; a test would just hang.

func TestNonMemberCollectivePanics(t *testing.T) {
	c := mustNew(3, fastMachine())
	err := c.Run(func(pr *Proc) error {
		comm, err := NewComm(c, []int{0, 1})
		if err != nil {
			return err
		}
		if pr.ID() == 2 {
			comm.AllReduceInt64(pr, "t", []int64{1}) // panics, recovered
			return nil
		}
		comm.AllReduceInt64(pr, "t", []int64{1})
		return nil
	})
	if err == nil {
		t.Error("non-member collective should error")
	}
}

func TestCollectiveDeterminism(t *testing.T) {
	run := func() []float64 {
		c := mustNew(8, fastMachine())
		world := c.World()
		_ = c.Run(func(pr *Proc) error {
			vec := make([]int64, 100)
			for i := range vec {
				vec[i] = int64(pr.ID() + i)
			}
			world.AllReduceInt64(pr, "a", vec)
			world.AllGather(pr, "g", pr.ID(), 64)
			world.AllReduceInt64(pr, "b", []int64{0})
			return nil
		})
		return c.Clocks()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("proc %d clock differs: %v vs %v", i, a[i], b[i])
		}
	}
}
