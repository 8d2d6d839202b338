package experiments

import (
	"strconv"
	"testing"
)

// churnColumn pulls one column of the churn table, keyed by header name.
func churnColumn(t *testing.T, res *Result, name string) []string {
	t.Helper()
	col := -1
	for i, h := range res.TableHeader {
		if h == name {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("churn table has no %q column (header %v)", name, res.TableHeader)
	}
	out := make([]string, len(res.TableRows))
	for i, row := range res.TableRows {
		out[i] = row[col]
	}
	return out
}

func churnFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("non-numeric table cell %q: %v", s, err)
	}
	return v
}

// TestChurnReplicationEliminatesPartials is the experiment-level acceptance
// check: the R=1 row must show partial answers (kill windows orphan shards)
// and the R=2 row exactly zero, with the failover machinery visibly at work.
func TestChurnReplicationEliminatesPartials(t *testing.T) {
	res := runNamed(t, "churn")
	if len(res.TableRows) != 2 {
		t.Fatalf("churn table has %d rows, want 2 (R=1, R=2)", len(res.TableRows))
	}
	partials := churnColumn(t, res, "partials")
	if churnFloat(t, partials[0]) == 0 { //checkinv:allow floatcmp integer counter parsed from the table, exact in float64
		t.Errorf("R=1 churn run reported no partial answers — the kill windows were not observed")
	}
	if got := churnFloat(t, partials[1]); got != 0 { //checkinv:allow floatcmp the invariant IS exactly zero partials
		t.Errorf("R=2 churn run reported %v partial answers, want exactly 0", got)
	}
	if retries := churnColumn(t, res, "retries"); churnFloat(t, retries[1]) == 0 { //checkinv:allow floatcmp integer counter, exact in float64
		t.Errorf("R=2 run recorded no retries — failover never exercised")
	}
	if hedges := churnColumn(t, res, "hedges"); churnFloat(t, hedges[1]) == 0 { //checkinv:allow floatcmp integer counter, exact in float64
		t.Errorf("R=2 run recorded no hedges — the straggler was never raced")
	}
}

// TestChurnHedgingFlattensTail: the straggler-phase tail at R=2 (hedged)
// must come in below R=1 (no alternative replica, waits out the delay).
func TestChurnHedgingFlattensTail(t *testing.T) {
	res := runNamed(t, "churn")
	stallCol := churnColumn(t, res, "stall p99(ms)")
	r1, r2 := churnFloat(t, stallCol[0]), churnFloat(t, stallCol[1])
	// Quick config injects a 15ms stall: R=1 is floored by it.
	if r1 < 15 {
		t.Errorf("R=1 straggler tail %.3fms below the injected 15ms delay", r1)
	}
	if r2 >= r1 {
		t.Errorf("hedging did not flatten the tail: R=2 %.3fms >= R=1 %.3fms", r2, r1)
	}
}

// TestChurnResultHashInvariant: the healed-fleet result hash must agree
// across replication factors (replication changes availability, never
// answers) and across two identically seeded runs.
func TestChurnResultHashInvariant(t *testing.T) {
	a := runNamed(t, "churn")
	ha := churnColumn(t, a, "results")
	if ha[0] != ha[1] {
		t.Errorf("result hash differs between R=1 (%s) and R=2 (%s)", ha[0], ha[1])
	}
	b := runFresh(t, "churn")
	hb := churnColumn(t, b, "results")
	for i := range ha {
		if ha[i] != hb[i] {
			t.Errorf("row %d result hash not reproducible: %s vs %s", i, ha[i], hb[i])
		}
	}
}
