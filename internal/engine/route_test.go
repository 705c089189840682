package engine

import (
	"math/rand"
	"reflect"
	"testing"
)

// naiveRoute is the routing contract spelled the obvious way: every
// element is appended to its target's []any in source order, one at a
// time. A block of up to sampleN elements reports the capacity those
// appends grew it to; a larger one reports exactly its length (the
// simulator only samples its positions). Blocks are typed []int when
// every non-empty source is a typed int batch, boxed otherwise, and
// empty targets stay nil.
func naiveRoute(d *dep, parent []Batch) []Batch {
	nt := d.childParts
	appended := make([][]any, nt)
	typed := true
	for src, part := range parent {
		for idx := 0; idx < batchLen(part); idx++ {
			e := part.At(idx)
			var t int
			if d.posPartitioner != nil {
				t = d.posPartitioner(src, idx, nt)
			} else {
				t = d.partitioner(e, nt)
			}
			appended[t] = append(appended[t], e)
		}
		if _, ok := part.(*Vec[int]); !ok && batchLen(part) > 0 {
			typed = false
		}
	}
	blocks := make([]Batch, nt)
	for t, xs := range appended {
		if len(xs) == 0 {
			continue
		}
		bcap := cap(xs)
		if len(xs) > sampleN {
			bcap = len(xs)
		}
		if !typed {
			blocks[t] = &Vec[any]{xs: xs, bcap: bcap}
			continue
		}
		ints := make([]int, len(xs))
		for i, e := range xs {
			ints[i] = e.(int)
		}
		blocks[t] = &Vec[int]{xs: ints, bcap: bcap}
	}
	return blocks
}

// routeCase is one router input: its partitioner and its sources.
type routeCase struct {
	name   string
	d      *dep
	parent []Batch
}

// routeCases draws randomized router inputs: narrow shapes with blocks on
// both sides of sampleN, wide shuffles (far more targets than elements
// per source, the k-means inner shape), all-empty and source-less
// inputs, mixed typed and boxed sources, and three partitioners — hash
// with the typed counting pass, hash through the boxed partitioner only,
// and positional.
func routeCases(rng *rand.Rand, trials int) []routeCase {
	hash := func(e any, n int) int { return int(uint32(e.(int))*2654435761) % n }
	var cases []routeCase
	for trial := 0; trial < trials; trial++ {
		var parent []Batch
		var nt int
		name := "narrow"
		switch trial % 4 {
		case 0, 1:
			parent = randomParent(rng, 9, 60)
			nt = 1 + rng.Intn(17)
		case 2:
			parent = randomParent(rng, 1200, 5)
			nt = 1 + rng.Intn(1500)
			name = "wide"
		default:
			parent = make([]Batch, rng.Intn(4))
			for i := range parent {
				if rng.Intn(2) == 0 {
					parent[i] = batchOf([]int{}, 0)
				}
			}
			nt = 1 + rng.Intn(8)
			name = "empty"
		}
		var d *dep
		switch trial % 3 {
		case 0:
			d = benchDep(nt)
			name += "/hash-typed"
		case 1:
			d = &dep{kind: depShuffle, childParts: nt, partitioner: hash}
			name += "/hash-boxed"
		default:
			d = &dep{kind: depShuffle, childParts: nt, posPartitioner: func(src, idx, n int) int {
				return (src*7 + idx) % n
			}}
			name += "/positional"
		}
		cases = append(cases, routeCase{name, d, parent})
	}
	return cases
}

// TestRouteMatchesNaiveReference checks both routers against naiveRoute,
// which shares no code with them: block contents, order, representation
// and boxed capacity must all be equal.
func TestRouteMatchesNaiveReference(t *testing.T) {
	s := poolSession(4)
	defer s.Close()
	rng := rand.New(rand.NewSource(14))
	for trial, c := range routeCases(rng, 240) {
		want := naiveRoute(c.d, c.parent)
		for name, got := range map[string][]Batch{
			"serial":   routeSerial(c.d, c.parent),
			"parallel": s.routeParallel(c.d, c.parent),
		} {
			if !reflect.DeepEqual(got, want) {
				for p := range want {
					if !reflect.DeepEqual(got[p], want[p]) {
						t.Fatalf("trial %d (%s, %d sources, %d targets): %s block %d = %#v, want %#v",
							trial, c.name, len(c.parent), c.d.childParts, name, p, got[p], want[p])
					}
				}
				t.Fatalf("trial %d (%s): %s returned %d blocks, want %d", trial, c.name, name, len(got), len(want))
			}
		}
	}
}

// TestRoutePanicLeavesNoDirtyScratch: a partitioner that panics midway
// through a source abandons that source's half-filled count scratch. The
// panic must reach the caller, and the routes that follow on the same
// session must not pick up the abandoned counts. The panicking route's
// other sources never reach the last target, so nothing in that route
// consumes the counts the poisoned source left there; the clean routes
// after it all reach it.
func TestRoutePanicLeavesNoDirtyScratch(t *testing.T) {
	s := poolSession(4)
	defer s.Close()
	const nsrc, perSrc, nt, poison = 16, 64, 8, -1
	d := &dep{kind: depShuffle, childParts: nt, partitioner: func(e any, n int) int {
		v := e.(int)
		if v == poison {
			panic("poisoned element")
		}
		return v % n
	}}
	clean := benchParent(nsrc, perSrc, false)
	poisoned := make([]Batch, nsrc)
	for src := range poisoned {
		vals := make([]int, perSrc)
		for i := range vals {
			vals[i] = i * nt % (nt - 1) // targets 0..nt-2 only
		}
		if src == nsrc/2 {
			vals[1], vals[2], vals[perSrc/2] = nt-1, 2*nt-1, poison
		}
		poisoned[src] = batchOf(vals, perSrc)
	}
	want := naiveRoute(d, clean)
	routers := map[string]func([]Batch) []Batch{
		"serial":   func(p []Batch) []Batch { return routeSerial(d, p) },
		"parallel": func(p []Batch) []Batch { return s.routeParallel(d, p) },
	}
	for name, route := range routers {
		for round := 0; round < 8; round++ {
			func() {
				defer func() {
					if r := recover(); r != "poisoned element" {
						t.Fatalf("%s round %d: recovered %v, want the partitioner's panic", name, round, r)
					}
				}()
				route(poisoned)
			}()
			for again := 0; again < 4; again++ {
				if got := route(clean); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s round %d: route %d after a panic differs from the reference", name, round, again)
				}
			}
		}
	}
}
