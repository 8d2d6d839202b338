package experiments

import (
	"strconv"
	"testing"
)

// loadgenColumns pulls one column of the loadgen table, keyed by header name.
func loadgenColumns(t *testing.T, res *Result, name string) []string {
	t.Helper()
	col := -1
	for i, h := range res.TableHeader {
		if h == name {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("loadgen table has no %q column (header %v)", name, res.TableHeader)
	}
	out := make([]string, len(res.TableRows))
	for i, row := range res.TableRows {
		out[i] = row[col]
	}
	return out
}

// TestLoadGenDeltaBeatsFull checks the experiment's core claim: when a
// small fraction of antecedent groups changes, the delta publish ships
// measurably fewer canonical bytes than a full re-publish — here, under
// half — at every fleet size.
func TestLoadGenDeltaBeatsFull(t *testing.T) {
	res := runNamed(t, "loadgen")
	deltas := loadgenColumns(t, res, "delta(B)")
	fulls := loadgenColumns(t, res, "full(B)")
	for i := range deltas {
		d, err1 := strconv.ParseInt(deltas[i], 10, 64)
		f, err2 := strconv.ParseInt(fulls[i], 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("row %d: unparseable byte columns %q / %q", i, deltas[i], fulls[i])
		}
		if d <= 0 || f <= 0 {
			t.Fatalf("row %d: degenerate byte counts delta=%d full=%d", i, d, f)
		}
		if d >= f/2 {
			t.Errorf("row %d: delta shipped %d bytes, full %d — expected well under half", i, d, f)
		}
	}
	partials := loadgenColumns(t, res, "partial")
	for i, p := range partials {
		if p != "0" {
			t.Errorf("row %d: %s partial results with no faults injected", i, p)
		}
	}
}

// TestLoadGenDeterministicHashes runs the experiment twice with the same
// Config and requires the seed-deterministic columns — placement and
// merged-result hashes, byte counts — to agree exactly.  (Timing columns
// are wall-clock and excluded.)  It also requires every fleet size to
// produce the same result hash: the distributed answers do not depend on
// how many nodes the shards landed on.
func TestLoadGenDeterministicHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the load sweep twice; skipped under -short")
	}
	a := runNamed(t, "loadgen")
	b := runFresh(t, "loadgen")
	for _, col := range []string{"nodes", "delta(B)", "full(B)", "placement", "results"} {
		ca := loadgenColumns(t, a, col)
		cb := loadgenColumns(t, b, col)
		for i := range ca {
			if ca[i] != cb[i] {
				t.Errorf("column %q row %d differs across identical runs: %q vs %q", col, i, ca[i], cb[i])
			}
		}
	}
	results := loadgenColumns(t, a, "results")
	for i, r := range results {
		if r != results[0] {
			t.Errorf("result hash differs across fleet sizes: row %d %s vs row 0 %s", i, r, results[0])
		}
	}
}
