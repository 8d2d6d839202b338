package obsv

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// PassCost is the cost breakdown of one mining pass, summed over ranks —
// the measured counterpart of the paper's parallel-runtime decomposition
// (compute vs. communication vs. idle vs. redundant work).
type PassCost struct {
	// Pass is the itemset size k of the pass; -1 collects time that falls
	// outside every pass span (startup, teardown, inter-pass recovery).
	Pass int
	// Per-category virtual (or real) seconds summed over all ranks.
	Compute float64
	IO      float64
	Send    float64
	Idle    float64
	Retry   float64
	// Start and End bound the pass across ranks: earliest pass-span start,
	// latest pass-span end.
	Start float64
	End   float64
	// Elapsed is End - Start: the wall of virtual time the pass occupied.
	Elapsed float64
	// CriticalPath is the busiest rank's non-idle time inside the pass
	// (compute+io+send+retry): the lower bound on the pass's elapsed time
	// under perfect communication.  Elapsed - CriticalPath is the pass's
	// irreducible wait.
	CriticalPath float64
}

// passInterval is one rank's span of one pass.
type passInterval struct {
	k          int
	start, end float64
}

// Attribution computes the per-pass cost breakdown of a trace.  Leaf slice
// spans (compute/io/send/idle/retry/drop) are attributed to the pass span
// that contains them on the same rank; slices outside every pass go to the
// Pass == -1 bucket.  Passes are returned sorted by k, with the -1 bucket
// (if non-empty) last.  Summed over all passes and the -1 bucket, the
// category totals equal the cluster's Stats totals
// (ComputeTime/IOTime/SendTime/IdleTime/RetryTime) for a trace recorded by
// core.Mine.
func Attribution(t *Trace) []PassCost {
	byRank := make(map[int][]passInterval)
	for _, s := range t.Spans {
		if s.Cat != CatPass {
			continue
		}
		k := -1
		if v, ok := s.Arg("k"); ok {
			if n, err := strconv.Atoi(v); err == nil {
				k = n
			}
		}
		byRank[s.Rank] = append(byRank[s.Rank], passInterval{k: k, start: s.Start, end: s.End})
	}
	for r := range byRank {
		ivs := byRank[r]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	}

	costs := make(map[int]*PassCost)
	get := func(k int) *PassCost {
		c, ok := costs[k]
		if !ok {
			c = &PassCost{Pass: k}
			costs[k] = c
		}
		return c
	}
	// Pass bounds come from the pass spans themselves, not the slices.
	for _, ivs := range byRank {
		for _, iv := range ivs {
			c := get(iv.k)
			if c.Start == 0 && c.End == 0 || iv.start < c.Start {
				c.Start = iv.start
			}
			if iv.end > c.End {
				c.End = iv.end
			}
		}
	}

	// busy[k][rank] accumulates each rank's non-idle time per pass for the
	// critical path.
	busy := make(map[int]map[int]float64)
	for _, s := range t.Spans {
		var bucket *float64
		var c *PassCost
		isBusy := false
		k := findPass(byRank[s.Rank], s)
		switch s.Cat {
		case CatCompute:
			c = get(k)
			bucket, isBusy = &c.Compute, true
		case CatIO:
			c = get(k)
			bucket, isBusy = &c.IO, true
		case CatSend:
			c = get(k)
			bucket, isBusy = &c.Send, true
		case CatIdle:
			c = get(k)
			bucket = &c.Idle
		case CatRetry, CatDrop:
			c = get(k)
			bucket, isBusy = &c.Retry, true
		default:
			continue
		}
		d := s.Dur()
		*bucket += d
		if isBusy {
			if busy[k] == nil {
				busy[k] = make(map[int]float64)
			}
			busy[k][s.Rank] += d
		}
	}
	for k, perRank := range busy {
		c := get(k)
		for _, b := range perRank {
			if b > c.CriticalPath {
				c.CriticalPath = b
			}
		}
	}

	out := make([]PassCost, 0, len(costs))
	for _, c := range costs {
		c.Elapsed = c.End - c.Start
		if c.Pass == -1 {
			// The catch-all bucket has no meaningful bounds.
			c.Start, c.End, c.Elapsed = 0, 0, 0
		}
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if (out[i].Pass == -1) != (out[j].Pass == -1) {
			return out[j].Pass == -1
		}
		return out[i].Pass < out[j].Pass
	})
	return out
}

// findPass returns the k of the interval containing the slice's midpoint,
// or -1 when no pass contains it.
func findPass(ivs []passInterval, s Span) int {
	mid := (s.Start + s.End) / 2
	for _, iv := range ivs {
		if mid >= iv.start && mid <= iv.end {
			return iv.k
		}
	}
	return -1
}

// TotalCost sums a breakdown into one PassCost (Pass == 0, bounds spanning
// all passes).  Use it to cross-check attribution against cluster.Stats.
func TotalCost(costs []PassCost) PassCost {
	var t PassCost
	first := true
	for _, c := range costs {
		t.Compute += c.Compute
		t.IO += c.IO
		t.Send += c.Send
		t.Idle += c.Idle
		t.Retry += c.Retry
		t.CriticalPath += c.CriticalPath
		if c.Pass == -1 {
			continue
		}
		if first || c.Start < t.Start {
			t.Start = c.Start
		}
		if first || c.End > t.End {
			t.End = c.End
		}
		first = false
	}
	t.Elapsed = t.End - t.Start
	return t
}

// WriteAttribution renders the breakdown as an aligned text table.  All
// numbers use fixed six-decimal formatting, so the bytes are deterministic
// for a deterministic trace.
func WriteAttribution(w io.Writer, costs []PassCost) error {
	if _, err := fmt.Fprintf(w, "%-6s %12s %12s %12s %12s %12s %12s %12s\n",
		"pass", "compute", "io", "send", "idle", "retry", "elapsed", "critpath"); err != nil {
		return err
	}
	row := func(label string, c PassCost) error {
		_, err := fmt.Fprintf(w, "%-6s %12.6f %12.6f %12.6f %12.6f %12.6f %12.6f %12.6f\n",
			label, c.Compute, c.IO, c.Send, c.Idle, c.Retry, c.Elapsed, c.CriticalPath)
		return err
	}
	for _, c := range costs {
		label := "other"
		if c.Pass >= 0 {
			label = "k=" + strconv.Itoa(c.Pass)
		}
		if err := row(label, c); err != nil {
			return err
		}
	}
	return row("total", TotalCost(costs))
}
