package engine

import (
	"context"
	"reflect"
	"testing"

	"matryoshka/internal/cluster"
	"matryoshka/internal/obs"
)

// The test pipeline's operators, registered once for the whole process
// (the registry is global and rejects duplicates).
func ptestTag(x int) Pair[int, int] { return KV(x%7, x) }
func ptestSum(a, b int) int         { return a + b }

func init() {
	RegisterBatchShape[int]()
	RegisterBatchShape[Pair[int, int]]()
	RegisterPortableOp("ptest.tag", func([]byte) (PortableCompute, error) {
		return MapCompute(ptestTag), nil
	})
	RegisterPortableOp("ptest.sum", func([]byte) (PortableCompute, error) {
		return ReduceByKeyCompute[int](ptestSum), nil
	})
	RegisterPortableOp("ptest.sum.combine", func([]byte) (PortableCompute, error) {
		return CombineCompute[int](ptestSum), nil
	})
}

// fakeRemoteRunner is an in-process RemoteRunner: it stores blocks in a
// map and evaluates shipped tasks with RunRemoteTask right here — the
// whole portable spec/serialization path without process management, so
// failures point at the spec builder rather than the pool.
type fakeRemoteRunner struct {
	*cluster.Simulator // Backend + Residency facets
	blocks             map[uint64]Batch
	next               uint64
	stages             int
	tasks              int
}

func newFakeRemoteRunner(t *testing.T) *fakeRemoteRunner {
	t.Helper()
	sim, err := cluster.New(cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &fakeRemoteRunner{Simulator: sim, blocks: map[uint64]Batch{}}
}

func (f *fakeRemoteRunner) PutBlock(b Batch) (uint64, error) {
	// Round-trip through the codec like the real pool, so shapes that
	// cannot cross a process boundary fail here too.
	enc, err := EncodeBatch(nil, b)
	if err != nil {
		return 0, err
	}
	dec, _, err := DecodeBatch(enc)
	if err != nil {
		return 0, err
	}
	f.next++
	f.blocks[f.next] = dec
	return f.next, nil
}

func (f *fakeRemoteRunner) RunRemoteStage(_ context.Context, spec *RemoteStageSpec) (*RemoteStageResult, error) {
	parts := make([]Batch, len(spec.Tasks))
	for i := range spec.Tasks {
		b, err := RunRemoteTask(spec.Ops, &spec.Tasks[i], func(id uint64) (Batch, error) {
			blk, ok := f.blocks[id]
			if !ok {
				return nil, codecErr("fake runner: unknown block %d", id)
			}
			return blk, nil
		})
		if err != nil {
			return nil, err
		}
		parts[i] = b
		f.tasks++
	}
	f.stages++
	return &RemoteStageResult{Parts: parts, Workers: 1}, nil
}

func ptestPipeline(t *testing.T, cfg Config) map[int]int {
	t.Helper()
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int, 500)
	for i := range data {
		data[i] = i
	}
	d := Parallelize(sess, data, 4)
	tagged := MarkPortable(Map(d, ptestTag), "ptest.tag", nil)
	summed := MarkCombinePortable(
		MarkPortable(ReduceByKeyN(tagged, ptestSum, 3), "ptest.sum", nil),
		"ptest.sum.combine", nil)
	out, err := CollectMap(summed)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRemoteRunnerBitIdentical: the same marked pipeline on a plain
// simulator and on a RemoteRunner backend must produce identical values,
// and the remote path must actually have run the shippable stages.
func TestRemoteRunnerBitIdentical(t *testing.T) {
	simOut := ptestPipeline(t, Config{})
	fr := newFakeRemoteRunner(t)
	remoteOut := ptestPipeline(t, Config{Backend: fr})
	if !reflect.DeepEqual(simOut, remoteOut) {
		t.Fatalf("values differ:\n sim:    %v\n remote: %v", simOut, remoteOut)
	}
	if fr.stages == 0 || fr.tasks == 0 {
		t.Fatalf("nothing ran remotely (stages=%d tasks=%d)", fr.stages, fr.tasks)
	}
}

// TestUnportableStageFallsBackDriverLocal: a pipeline with an unmarked
// closure must still produce correct results on a RemoteRunner backend —
// its stages run driver-local — and the decision log must say why.
func TestUnportableStageFallsBackDriverLocal(t *testing.T) {
	fr := newFakeRemoteRunner(t)
	rec := obs.NewRecorder()
	sess, err := NewSession(Config{Backend: fr, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	data := []int{5, 6, 7, 8}
	doubled, err := Collect(Map(Parallelize(sess, data, 2), func(x int) int { return 2 * x }))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{10, 12, 14, 16}; !reflect.DeepEqual(doubled, want) {
		t.Fatalf("got %v, want %v", doubled, want)
	}
	if fr.stages != 0 {
		t.Fatalf("unmarked stage ran remotely (%d stages)", fr.stages)
	}
	found := false
	for _, d := range rec.Decisions() {
		if d.Rule == "proc-backend" && d.Choice == "driver-local" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no driver-local fallback decision logged; decisions: %+v", rec.Decisions())
	}
}
