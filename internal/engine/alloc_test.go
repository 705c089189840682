package engine

// Allocation-regression tests for the perf-critical paths this engine
// depends on: the monomorphic stable hashers must stay allocation-free,
// the fused narrow chain must not allocate per element, and the parallel
// shuffle router must allocate only its per-call bookkeeping. These run
// as part of `go test` so a regression (an interface conversion sneaking
// into a hasher, a closure capture boxing rows) fails CI, not a later
// profiling session. Skipped under -race: instrumentation allocates.

import (
	"runtime"
	"testing"
)

func skipIfInstrumented(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
}

// TestHashOfAllocFree: every monomorphic fast-path key type hashes with
// zero allocations. These hashes run once per element per shuffle — an
// allocation here multiplies across every shuffled record.
func TestHashOfAllocFree(t *testing.T) {
	skipIfInstrumented(t)
	s := poolSession(1)
	defer s.Close()
	var sink uint64
	cases := []struct {
		name string
		f    func()
	}{
		{"int", func() { sink += hashOf(s, 12345) }},
		{"int64", func() { sink += hashOf(s, int64(-7)) }},
		{"uint64", func() { sink += hashOf(s, uint64(99)) }},
		{"string", func() { sink += hashOf(s, "a moderately sized key string") }},
		{"pair-int-int", func() { sink += hashOf(s, Pair[int, int]{1, 2}) }},
		{"pair-int-int64", func() { sink += hashOf(s, Pair[int, int64]{1, 2}) }},
		{"pair-string-string", func() { sink += hashOf(s, Pair[string, string]{"ab", "cd"}) }},
		{"pair-string-int", func() { sink += hashOf(s, Pair[string, int]{"ab", 3}) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if avg := testing.AllocsPerRun(100, c.f); avg != 0 {
				t.Errorf("hashOf(%s) allocates %.1f per call, want 0", c.name, avg)
			}
		})
	}
	runtime.KeepAlive(sink)
}

// TestFusedNarrowPathAllocBound: a whole fused map∘filter∘map job over n
// elements stays within a fixed allocation budget that does not scale with
// n — the per-element cost of the narrow path is zero allocations. The
// unfused path allocates ~3 boxes per element (tens of thousands here);
// the bound below is two orders of magnitude under that, so any per-element
// allocation sneaking into the fused loop trips it immediately.
func TestFusedNarrowPathAllocBound(t *testing.T) {
	skipIfInstrumented(t)
	const n = 1 << 14
	data := seq(n)
	s := poolSession(1)
	defer s.Close()
	src := Parallelize(s, data, 8)
	job := func() {
		mapped := Map(src, func(v int) int { return v * 3 })
		kept := Filter(mapped, func(v int) bool { return v%8 != 0 })
		small := Map(kept, func(v int) int { return v & 255 })
		if _, err := Count(small); err != nil {
			t.Fatal(err)
		}
	}
	job()              // warm the session's pools and caches
	const budget = 600 // job/plan/stage machinery + 8 output partitions
	if avg := testing.AllocsPerRun(10, job); avg > budget {
		t.Errorf("fused narrow job allocates %.0f per run over %d elements, want <= %d", avg, n, budget)
	}
}

// TestRouteParallelAllocBound: the counting-pass router allocates exactly
// its bookkeeping (the per-source routing table and one arena for every
// source's target cache and hits, one batch per non-empty block) and
// nothing per element.
func TestRouteParallelAllocBound(t *testing.T) {
	skipIfInstrumented(t)
	const nsrc, perSrc, nt = 8, 4096, 16
	parent := benchParent(nsrc, perSrc, false)
	d := benchDep(nt)
	s := poolSession(runtime.GOMAXPROCS(0))
	defer s.Close()
	s.routeParallel(d, parent) // warm the worker pool
	// blocks outer + routing table + arena + nt blocks (header and
	// slice each), plus closures and pool-dispatch slack.
	const budget = 2*nsrc + nt + 16
	if avg := testing.AllocsPerRun(10, func() { s.routeParallel(d, parent) }); avg > budget {
		t.Errorf("routeParallel allocates %.0f per call, want <= %d", avg, budget)
	}
}

// TestRouteWideShuffleBytes: one route of inner-parallel k-means' shape —
// 1200 map partitions of 4 combined sums each into 1200 targets — costs
// bytes linear in elements, sources and targets. A source×target count
// table would be 1200×1200 int32 = 5.76 MB on its own.
func TestRouteWideShuffleBytes(t *testing.T) {
	skipIfInstrumented(t)
	const nsrc, perSrc, nt = 1200, 4, 1200
	const n = nsrc * perSrc
	parent := benchParent(nsrc, perSrc, false)
	d := benchDep(nt)
	s := poolSession(runtime.GOMAXPROCS(0))
	defer s.Close()
	// The bound, item by item:
	//   blocks slice          16 B per target (one interface each)
	//   routing table         48 B per source (two slice headers)
	//   arena                 4 B per element of target cache, plus two
	//                         int32 hit slots per element at most: 12 B
	//                         per element
	//   non-empty blocks      at most min(n, nt) of them, 32 B of Vec
	//                         header each, and 8 B per int element,
	//                         doubled for size-class rounding: 16 B per
	//                         element
	//   page rounding         8 KiB each for the three arrays above
	//                         that are large objects (blocks slice,
	//                         routing table, arena)
	//   count scratch         4 B per target for each goroutine that
	//                         misses the pool, plus the prefix sum's own
	//   closures and dispatch 4 KiB
	procs := runtime.GOMAXPROCS(0)
	bound := uint64(16*nt + 48*nsrc + 12*n + 32*min(n, nt) + 16*n + 3*8192 + 4*nt*(procs+1) + 4096)
	for name, route := range map[string]func(){
		"serial":   func() { routeSerial(d, parent) },
		"parallel": func() { s.routeParallel(d, parent) },
	} {
		route() // warm the worker pool and the scratch pool
		const rounds = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			route()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per > bound {
			t.Errorf("%s route of %d sources x %d elements into %d targets allocates %d B, want <= %d", name, nsrc, perSrc, nt, per, bound)
		} else {
			t.Logf("%s: %d B per route (bound %d)", name, per, bound)
		}
	}
}

// TestParallelForAllocFree: a fanned-out parallelFor call allocates
// nothing in steady state. Its runners are the recycled loop itself sent
// over the pool's channel, not per-call closures, counters or wait
// groups — the per-dispatch allocations routeParallel's bound above
// leaves no room for at GOMAXPROCS >= 2.
func TestParallelForAllocFree(t *testing.T) {
	skipIfInstrumented(t)
	p := newWorkerPool(4)
	defer p.close()
	hits := make([]int32, 64)
	body := func(i int) { hits[i]++ }
	for name, loop := range map[string]func(int, int, func(int)){"parallelFor": p.parallelFor, "parallelForSafe": p.parallelForSafe} {
		run := func() { loop(4, len(hits), body) }
		run() // warm the loop pool
		if avg := testing.AllocsPerRun(100, run); avg != 0 {
			t.Errorf("%s allocates %.0f per call, want 0", name, avg)
		}
	}
}
