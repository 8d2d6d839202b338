package checkinv

import (
	"testing"
	"time"
)

// BenchmarkDriverCold measures a full uncached run over the repository
// tree — parse, type-check (stdlib from source) and analyze everything.
// Each iteration gets a fresh cache directory so nothing carries over.
func BenchmarkDriverCold(b *testing.B) {
	root, _, err := ModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		b.StartTimer()
		if _, err := RunTree(RunOptions{Dir: root, CacheDir: dir}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDriverWarm measures the same run served from a primed cache:
// only content hashing and entry hydration remain.
func BenchmarkDriverWarm(b *testing.B) {
	root, _, err := ModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	opts := RunOptions{Dir: root, CacheDir: dir}
	if _, err := RunTree(opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunTree(opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.CacheMisses != 0 {
			b.Fatalf("warm iteration missed %d package(s)", res.Stats.CacheMisses)
		}
	}
}

// TestWarmRunFaster is the in-tree half of the acceptance criterion: a
// cached re-run must be measurably faster than the cold run.  The margin
// asserted (2x) is far below the observed ~100x so the test stays stable
// on loaded machines; CI's timing step checks the same property on the
// full tree.
func TestWarmRunFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	root := tmpModule(t)
	opts := RunOptions{Dir: root, CacheDir: root + "/.cache"}

	start := time.Now()
	if _, err := RunTree(opts); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)

	start = time.Now()
	res, err := RunTree(opts)
	if err != nil {
		t.Fatal(err)
	}
	warm := time.Since(start)

	if res.Stats.CacheMisses != 0 {
		t.Fatalf("warm run missed %d package(s)", res.Stats.CacheMisses)
	}
	if warm*2 > cold {
		t.Errorf("warm run %v is not measurably faster than cold %v", warm, cold)
	}
}
