package main

import (
	"fmt"
	"sort"

	"matryoshka/internal/ml"
	"matryoshka/internal/tasks"
)

// kmTolerance is the squared centroid distance within which a run matches
// the sequential reference, as in the tier-1 suite: strategies sum points
// in different orders, so bit equality is too strict.
const kmTolerance = 1e-6

// references holds the sequential answers a workload's runs must match.
type references struct {
	typed any               // the typed task's Reference()
	rates tasks.BounceRates // the IR program's reference (bounce rates)
}

func (w *workload) references() references {
	refs := references{rates: w.visits().Reference()}
	switch t := w.typed.(type) {
	case tasks.KMeansSpec:
		refs.typed = t.Reference()
	case tasks.BounceRateSpec:
		refs.typed = refs.rates
	}
	return refs
}

// check reports whether a program's value matches its reference.
func (refs references) check(prog string, got any) error {
	want := refs.typed
	if prog == progIR {
		want = refs.rates
	}
	switch want := want.(type) {
	case tasks.KMeansValue:
		g, ok := got.(tasks.KMeansValue)
		if !ok {
			return fmt.Errorf("%s: value is %T, want k-means centroids", prog, got)
		}
		return checkKMeans(g, want)
	case tasks.BounceRates:
		g, ok := got.(tasks.BounceRates)
		if !ok {
			return fmt.Errorf("%s: value is %T, want bounce rates", prog, got)
		}
		return checkRates(g, want)
	}
	return fmt.Errorf("%s: no reference of type %T", prog, want)
}

func checkKMeans(got, want tasks.KMeansValue) error {
	if len(got) != len(want) {
		return fmt.Errorf("k-means: %d configs, want %d", len(got), len(want))
	}
	for _, id := range sortedKeys(want) {
		g, w := got[id], want[id]
		if len(g) != len(w) {
			return fmt.Errorf("k-means config %d: %d centroids, want %d", id, len(g), len(w))
		}
		for i := range w {
			if d := ml.Dist2(g[i], w[i]); d > kmTolerance {
				return fmt.Errorf("k-means config %d centroid %d: %v, want %v (squared distance %g)", id, i, g[i], w[i], d)
			}
		}
	}
	return nil
}

// checkRates compares bounce rates exactly: every strategy divides the
// same two integer counts.
func checkRates(got, want tasks.BounceRates) error {
	if len(got) != len(want) {
		return fmt.Errorf("bounce rate: %d days, want %d", len(got), len(want))
	}
	for _, day := range sortedKeys(want) {
		if g, ok := got[day]; !ok || g != want[day] {
			return fmt.Errorf("bounce rate day %d: %v (present %v), want %v", day, g, ok, want[day])
		}
	}
	return nil
}

func sortedKeys[K int | int64, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
