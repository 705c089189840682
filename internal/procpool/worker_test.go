package procpool

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"matryoshka/internal/cluster"
	"matryoshka/internal/engine"
	"matryoshka/internal/tasks"
)

// captureRunner is an in-process RemoteRunner that records every stage
// spec it is handed and the encoded frame of every block, and runs the
// stage with engine.RunRemoteTask, so a test can replay real stages
// through the worker path.
type captureRunner struct {
	*cluster.Simulator // Backend + Residency facets
	frames             map[uint64][]byte
	blocks             map[uint64]engine.Batch
	stages             []*engine.RemoteStageSpec
}

func newCaptureRunner(t testing.TB) *captureRunner {
	t.Helper()
	sim, err := cluster.New(cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &captureRunner{Simulator: sim, frames: map[uint64][]byte{}, blocks: map[uint64]engine.Batch{}}
}

func (c *captureRunner) PutBlock(b engine.Batch) (uint64, error) {
	frame, err := engine.EncodeBatch(nil, b)
	if err != nil {
		return 0, err
	}
	dec, _, err := engine.DecodeBatch(frame)
	if err != nil {
		return 0, err
	}
	id := uint64(len(c.frames) + 1)
	c.frames[id], c.blocks[id] = frame, dec
	return id, nil
}

func (c *captureRunner) RunRemoteStage(_ context.Context, spec *engine.RemoteStageSpec) (*engine.RemoteStageResult, error) {
	c.stages = append(c.stages, spec)
	parts := make([]engine.Batch, len(spec.Tasks))
	for i := range spec.Tasks {
		b, err := engine.RunRemoteTask(spec.Ops, &spec.Tasks[i], c.fetch)
		if err != nil {
			return nil, err
		}
		parts[i] = b
	}
	return &engine.RemoteStageResult{Parts: parts, Workers: 1}, nil
}

func (c *captureRunner) fetch(id uint64) (engine.Batch, error) { return c.blocks[id], nil }

// stageWith returns the first captured stage whose operator table names op.
func (c *captureRunner) stageWith(t testing.TB, op string) *engine.RemoteStageSpec {
	t.Helper()
	for _, spec := range c.stages {
		if slices.ContainsFunc(spec.Ops, func(o engine.RemoteOp) bool { return o.Name == op }) {
			return spec
		}
	}
	t.Fatalf("no captured stage runs %q", op)
	return nil
}

// kmeansCapture runs a small inner-parallel k-means search on a capture
// runner.
func kmeansCapture(t testing.TB) *captureRunner {
	t.Helper()
	c := newCaptureRunner(t)
	old := tasks.Backend
	tasks.Backend = c
	defer func() { tasks.Backend = old }()
	sp := tasks.KMeansSpec{TotalPoints: 2000, K: 3, Configs: 2, Eps: 1e-6, MaxIters: 2, Seed: 1}
	if out := sp.Run(tasks.InnerParallel, cluster.Config{}); out.Err != nil {
		t.Fatalf("k-means run: %v", out.Err)
	}
	return c
}

// workerFrames encodes every task of spec as the driver would push it to
// one fresh worker: the operator table in the first frame only, each block
// in the first frame that reads it.
func workerFrames(t testing.TB, c *captureRunner, spec *engine.RemoteStageSpec) [][]byte {
	t.Helper()
	sent := map[uint64]bool{}
	var bodies [][]byte
	for i := range spec.Tasks {
		f := taskFrame{id: uint64(i + 1), stage: 1, task: spec.Tasks[i]}
		if i == 0 {
			f.ops = spec.Ops
		}
		for _, id := range taskBlocks(nil, &spec.Tasks[i]) {
			if !sent[id] {
				sent[id] = true
				f.blocks = append(f.blocks, inlineBlock{id: id, frame: c.frames[id]})
			}
		}
		bodies = append(bodies, encodeTask(t, f))
	}
	return bodies
}

// TestCompiledKernelsMatchFreshKernels: a worker builds each operator of a
// stage once and reuses the kernel for every task. Replaying every task of
// a captured k-means map stage (whose assign kernel closes over the
// centroids its argument carries) and of both chaos-diamond stages
// through the worker path — wire encoding, one shared workerState — must
// give, task for task, what engine.RunRemoteTask computes with fresh
// kernels.
func TestCompiledKernelsMatchFreshKernels(t *testing.T) {
	km := kmeansCapture(t)
	chaos := newCaptureRunner(t)
	withBackend(t, chaos, func() {
		sp := tasks.ChaosSpec{Records: 1500, Keys: 32, Parts: 3, Rounds: 2}
		if out := sp.Run(cluster.Config{}); out.Err != nil {
			t.Fatalf("chaos run: %v", out.Err)
		}
	})
	if len(chaos.stages) < 2 {
		t.Fatalf("chaos run shipped %d stages, want at least 2", len(chaos.stages))
	}
	cases := map[string]struct {
		c      *captureRunner
		stages []*engine.RemoteStageSpec
	}{
		"kmeans map": {km, []*engine.RemoteStageSpec{km.stageWith(t, "kmeans.assign")}},
		"chaos":      {chaos, chaos.stages},
	}
	for name, tc := range cases {
		for _, spec := range tc.stages {
			if len(spec.Tasks) < 2 {
				t.Fatalf("%s: stage %q has %d tasks; kernel reuse needs at least 2", name, spec.Label, len(spec.Tasks))
			}
			w := newWorkerState()
			for i, body := range workerFrames(t, tc.c, spec) {
				f, err := parseTask(body)
				if err != nil {
					t.Fatalf("%s task %d: %v", name, i, err)
				}
				out, ok := w.runTask(&f)
				if !ok {
					t.Fatalf("%s task %d: worker refused it", name, i)
				}
				_, done, payload, err := parseTagged(out)
				if err != nil || !done {
					t.Fatalf("%s task %d: failed: %s (%v)", name, i, payload, err)
				}
				got, _, err := engine.DecodeBatch(payload)
				if err != nil {
					t.Fatal(err)
				}
				want, err := engine.RunRemoteTask(spec.Ops, &spec.Tasks[i], tc.c.fetch)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s stage %q task %d: compiled kernels gave %v, fresh kernels %v", name, spec.Label, i, got, want)
				}
			}
			if len(w.tables) != 1 {
				t.Fatalf("%s: worker holds %d operator tables, want 1", name, len(w.tables))
			}
		}
	}
}

// kmeansMapTask is the second task frame of a captured k-means map stage,
// as a worker receives it after the first: no operator table, one inline
// block. It returns the frame's body and a worker that has run the first.
func kmeansMapTask(t testing.TB) ([]byte, *workerState) {
	t.Helper()
	c := kmeansCapture(t)
	bodies := workerFrames(t, c, c.stageWith(t, "kmeans.assign"))
	w := newWorkerState()
	first, err := parseTask(bodies[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.runTask(&first); !ok {
		t.Fatal("worker refused the first task")
	}
	return bodies[1], w
}

// TestTaskFrameAllocBound pins what parsing a k-means map task body
// allocates. The task is combine(assign(block)) with one inline block:
//
//	1  the inline-block slice
//	2  the two RemoteNodes (combine, assign)
//	2  their two one-entry input slices
//
// for a bound of 5, whatever the task's partition, block or argument
// sizes. Reflection-based decoding (encoding/json) allocates several
// times that, so a return to it fails here on any host.
func TestTaskFrameAllocBound(t *testing.T) {
	body, _ := kmeansMapTask(t)
	f, err := parseTask(body)
	if err != nil {
		t.Fatal(err)
	}
	if root := f.task.Root; f.ops != nil || len(f.blocks) != 1 || len(root.Inputs) != 1 || root.Inputs[0].Kind != engine.InputNode {
		t.Fatalf("captured task is not combine(assign(block)) with one inline block: %+v", f)
	}
	const budget = 1 + 2 + 2
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := parseTask(body); err != nil {
			t.Fatal(err)
		}
	}); avg > budget {
		t.Errorf("parseTask allocates %.0f per k-means map task, want <= %d", avg, budget)
	}
}

// BenchmarkTaskFrame is one k-means map task's per-task cost outside the
// transport: encode its frame on the driver, parse it and run it on a
// worker that already holds the stage's compiled operator table.
func BenchmarkTaskFrame(b *testing.B) {
	body, w := kmeansMapTask(b)
	f, err := parseTask(body)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		frame, err := appendTask(startFrame(msgTask, len(body)), &f)
		if err != nil {
			b.Fatal(err)
		}
		g, err := parseTask(sealFrame(frame)[frameHeader:])
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := w.runTask(&g); !ok {
			b.Fatal("worker refused the task")
		}
	}
}
