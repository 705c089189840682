package engine

// Map-side shuffle routing. The partitioned parent of a shuffle dep is
// routed into the child's partitions here; this is the hottest structural
// loop in the engine (every shuffled element passes through it once per
// stage boundary). One counting-pass core serves both executors — the
// serial reference and the pooled parallel router run the identical
// algorithm with different loop dispatch, so their blocks are equal by
// construction. Counts are sparse: each source keeps (target, count)
// pairs for only the targets it reaches, so a shuffle of few elements
// into many targets costs no source×target table. Typed batches route
// without boxing: the dep's batchTargets hashes a whole batch
// monomorphically in the counting pass, and scatter moves elements
// between typed blocks in the write pass.

import "sync"

// routeSrc is one source's routing state, two windows of a per-route
// arena: tg caches each element's target, and hits holds a (target,
// count) pair per target the source reaches, the count rewritten into the
// source's write offset by the prefix sum.
type routeSrc struct {
	tg, hits []int32
}

// routeCore routes every element of every parent partition into its
// target block. A counting pass caches each element's target (the
// partitioner runs exactly once per element) and compacts the source's
// counts into sparse hits; a prefix sum over the sources in order turns
// each hit into a write offset; a write pass puts every element directly
// into its final slot. Work and memory are O(elements + sources +
// targets), never sources×targets. Output block order is deterministic
// regardless of worker count: sources in order, elements in source order.
//
// When every non-empty source shares one batch shape, blocks are
// allocated in that shape and filled by typed scatter; mixed shapes fall
// back to boxed blocks. Either way a block's boxed capacity is
// blockCap(len), reproducing the append-grown []any blocks the simulator
// observed before batches existed.
func routeCore(d *dep, parent []Batch, pool *workerPool, workers int) []Batch {
	nsrc := len(parent)
	nt := d.childParts
	blocks := make([]Batch, nt)
	if nsrc == 0 {
		return blocks
	}
	// A source of n elements reaches at most min(n, nt) targets.
	srcs := make([]routeSrc, nsrc)
	size := 0
	for _, part := range parent {
		n := batchLen(part)
		size += n + 2*min(n, nt)
	}
	arena := make([]int32, size)
	for src, part := range parent {
		n := batchLen(part)
		h := n + 2*min(n, nt)
		srcs[src] = routeSrc{tg: arena[:n:n], hits: arena[n:n:h]}
		arena = arena[h:]
	}

	// Counting pass: count into the zeroed scratch, then walk the target
	// cache to move each nonzero count into hits, re-zeroing as it goes.
	countSrc := func(src int, ct []int32) {
		part := parent[src]
		rs := &srcs[src]
		n := len(rs.tg)
		switch {
		case n == 0:
			return
		case d.posPartitioner != nil:
			for idx := 0; idx < n; idx++ {
				t := d.posPartitioner(src, idx, nt)
				rs.tg[idx] = int32(t)
				ct[t]++
			}
		case d.batchTargets != nil && d.batchTargets(part, nt, rs.tg, ct):
			// Typed fast path: one dispatch per batch, no boxing.
		default:
			for idx := 0; idx < n; idx++ {
				t := d.partitioner(part.At(idx), nt)
				rs.tg[idx] = int32(t)
				ct[t]++
			}
		}
		for _, t := range rs.tg {
			if c := ct[t]; c != 0 {
				rs.hits = append(rs.hits, t, c)
				ct[t] = 0
			}
		}
	}
	forSources(pool, workers, nsrc, nt, countSrc)

	// Block representation: typed when every non-empty source agrees.
	proto, homogeneous := routeProto(parent)

	// Prefix sum, then allocate each block exactly once at its final size.
	totp := getRouteScratch(nt)
	total := *totp
	for _, rs := range srcs {
		for i := 0; i < len(rs.hits); i += 2 {
			t, c := rs.hits[i], rs.hits[i+1]
			rs.hits[i+1] = total[t]
			total[t] += c
		}
	}
	for t, n := range total {
		if n > 0 { // keep empty blocks nil, as the boxed reference did
			if homogeneous {
				blocks[t] = proto.newLike(int(n), blockCap(int(n)))
			} else {
				blocks[t] = &Vec[any]{xs: make([]any, n), bcap: blockCap(int(n))}
			}
			total[t] = 0
		}
	}
	routeScratch.Put(totp)

	// Write pass: load the source's offsets into the zeroed scratch, write,
	// re-zero. Offsets are disjoint across sources, so writes to a shared
	// block land in disjoint slots.
	writeSrc := func(src int, off []int32) {
		part, rs := parent[src], srcs[src]
		if len(rs.tg) == 0 {
			return
		}
		for i := 0; i < len(rs.hits); i += 2 {
			off[rs.hits[i]] = rs.hits[i+1]
		}
		if homogeneous {
			part.scatter(rs.tg, off, blocks)
		} else {
			for idx, t := range rs.tg {
				blocks[t].setAny(int(off[t]), part.At(idx))
				off[t]++
			}
		}
		for i := 0; i < len(rs.hits); i += 2 {
			off[rs.hits[i]] = 0
		}
	}
	forSources(pool, workers, nsrc, nt, writeSrc)
	return blocks
}

// forSources runs body over every source: inline when workers <= 1, else
// on the pool in contiguous runs, four per worker so uneven sources still
// balance. Each run lends body one all-zero nt-sized scratch, which body
// must leave all-zero. A run that panics never returns its scratch, so no
// route reuses a dirty one.
func forSources(pool *workerPool, workers, nsrc, nt int, body func(src int, scratch []int32)) {
	runs := 1
	if workers > 1 {
		runs = min(nsrc, 4*workers)
	}
	run := func(r int) {
		sc := getRouteScratch(nt)
		for src := r * nsrc / runs; src < (r+1)*nsrc/runs; src++ {
			body(src, *sc)
		}
		routeScratch.Put(sc)
	}
	if runs == 1 {
		run(0)
	} else {
		pool.parallelForSafe(workers, runs, run)
	}
}

// routeScratch recycles the router's per-target scratch. A pooled slice
// is all-zero over its whole capacity.
var routeScratch = sync.Pool{New: func() any { return new([]int32) }}

// getRouteScratch returns a pooled all-zero scratch of length nt.
func getRouteScratch(nt int) *[]int32 {
	p := routeScratch.Get().(*[]int32)
	if cap(*p) < nt {
		*p = make([]int32, nt)
	}
	*p = (*p)[:nt]
	return p
}

// routeProto scans the non-empty sources for a shared batch shape. It
// returns the first non-empty batch as the prototype and whether every
// other non-empty source matches it.
func routeProto(parent []Batch) (Batch, bool) {
	var proto Batch
	for _, part := range parent {
		if batchLen(part) == 0 {
			continue
		}
		if proto == nil {
			proto = part
		} else if !sameBatchShape(proto, part) {
			return proto, false
		}
	}
	if proto == nil {
		return zeroBatch, true
	}
	return proto, true
}

// routeSerial is the single-goroutine router the legacy executor runs:
// routeCore with inline loops.
func routeSerial(d *dep, parent []Batch) []Batch {
	return routeCore(d, parent, nil, 1)
}

// routeParallel routes source partitions concurrently on the session's
// worker pool. On a single-worker session routeCore runs every loop
// inline and never dispatches — the dispatch would be pure overhead with
// no one to overlap it with (the same 1-core audit flattenParallel got).
func (s *Session) routeParallel(d *dep, parent []Batch) []Batch {
	return routeCore(d, parent, s.pool, s.workers)
}

// blockCap returns the boxed-equivalent capacity of a block of n elements.
// Capacity is observable in simulated accounting: sizeest charges
// BoxedCap, and estPartitionBytes hands whole blocks of up to sampleN
// elements to it directly. The original append-based router grew such
// small blocks through the power-of-two capacities of one-at-a-time
// appends, so blocks keep reporting that capacity to keep simulated
// numbers bit-identical. Larger blocks go through position sampling,
// where capacity is never observed, and get exactly n.
func blockCap(n int) int {
	if n > sampleN {
		return n
	}
	if n == 0 {
		return 0 // never-appended nil slice
	}
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// flattenCore copies every parent partition into its pre-computed region
// of one exactly-sized batch. Same-shaped sources flatten typed; mixed
// shapes fall back to a boxed batch. Both report boxed capacity == total,
// matching the boxed flatten's exact pre-size.
func flattenCore(parent []Batch, pool *workerPool, workers int) Batch {
	offsets := make([]int, len(parent)+1)
	for i, part := range parent {
		offsets[i+1] = offsets[i] + batchLen(part)
	}
	total := offsets[len(parent)]
	proto, homogeneous := routeProto(parent)
	var flat Batch
	if homogeneous {
		flat = proto.newLike(total, total)
	} else {
		flat = &Vec[any]{xs: make([]any, total), bcap: total}
	}
	copySrc := func(src int) {
		part := parent[src]
		n := batchLen(part)
		if n == 0 {
			return
		}
		off := offsets[src]
		if flat.copyFrom(off, part) {
			return
		}
		for idx := 0; idx < n; idx++ {
			flat.setAny(off+idx, part.At(idx))
		}
	}
	if workers <= 1 {
		for src := range parent {
			copySrc(src)
		}
	} else {
		pool.parallelForSafe(workers, len(parent), copySrc)
	}
	return flat
}

// flattenSerial is the retained reference flatten for broadcast pinning.
func flattenSerial(parent []Batch) Batch {
	return flattenCore(parent, nil, 1)
}

// flattenCutoff is the total element count below which flattenParallel
// routes to the serial copy: a broadcast flatten is a pure memcpy sweep,
// and for small inputs the pool dispatch and per-partition goroutine
// handoff cost as much as the copy itself (BenchmarkBroadcastFlatten
// measured ~131k elements finishing in identical time either way). Both
// paths produce a batch of identical length, order, and boxed capacity,
// so the routing choice is invisible to simulated accounting.
const flattenCutoff = 1 << 18

// flattenParallel copies partitions concurrently; inputs below
// flattenCutoff, and single-worker pools, take the serial copy instead.
func (s *Session) flattenParallel(parent []Batch) Batch {
	var total int
	for _, part := range parent {
		total += batchLen(part)
	}
	// A single-worker pool can never win a memcpy sweep: the dispatch is
	// pure overhead with no one to overlap it with.
	if total < flattenCutoff || s.workers == 1 {
		return flattenCore(parent, nil, 1)
	}
	return flattenCore(parent, s.pool, s.workers)
}
