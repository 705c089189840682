package procpool

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"matryoshka/internal/cluster"
	"matryoshka/internal/engine"
	"matryoshka/internal/obs"
	"matryoshka/internal/tasks"
)

// The adversarial test operators. They register in both the driver and
// the worker (same binary, same init), and none of them need real input
// data — their single input is engine.InputEmpty.
func init() {
	engine.RegisterPortableOp("htest.ok", func([]byte) (engine.PortableCompute, error) {
		return func(_ *engine.Ctx, _ int, inputs []engine.Batch) engine.Batch {
			return inputs[0]
		}, nil
	})
	// htest.exit is a poison task: it takes the worker process down with
	// exit code 3, every time, on every worker.
	engine.RegisterPortableOp("htest.exit", func([]byte) (engine.PortableCompute, error) {
		return func(_ *engine.Ctx, _ int, _ []engine.Batch) engine.Batch {
			os.Exit(3)
			return nil
		}, nil
	})
	// htest.hang wedges forever — but only for whichever process first
	// wins the O_EXCL create of the flag file (the arg). Re-runs after
	// the deadline kill see the file and return promptly.
	engine.RegisterPortableOp("htest.hang", func(arg []byte) (engine.PortableCompute, error) {
		return func(_ *engine.Ctx, _ int, inputs []engine.Batch) engine.Batch {
			f, err := os.OpenFile(string(arg), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
			if err == nil {
				f.Close()
				select {} // wedge; only the task deadline can end this
			}
			return inputs[0]
		}, nil
	})
	// htest.gen emits three ints derived from its part number: input
	// data for the window tests, built the same way in either process.
	engine.RegisterPortableOp("htest.gen", func([]byte) (engine.PortableCompute, error) {
		return func(ctx *engine.Ctx, part int, inputs []engine.Batch) engine.Batch {
			return engine.MapPartitionsCompute(func([]any) []int {
				return []int{part * 10, part*10 + 1, part*10 + 2}
			})(ctx, part, inputs)
		}, nil
	})
	// htest.nap naps 50ms, so a window of them queues up on a worker.
	engine.RegisterPortableOp("htest.nap", func([]byte) (engine.PortableCompute, error) {
		return func(_ *engine.Ctx, _ int, inputs []engine.Batch) engine.Batch {
			time.Sleep(50 * time.Millisecond)
			return inputs[0]
		}, nil
	})
	// htest.sleep naps 300ms, for cancellation to interrupt.
	engine.RegisterPortableOp("htest.sleep", func([]byte) (engine.PortableCompute, error) {
		return func(_ *engine.Ctx, _ int, inputs []engine.Batch) engine.Batch {
			time.Sleep(300 * time.Millisecond)
			return inputs[0]
		}, nil
	})
}

// opSpec builds a minimal one-op stage: parts tasks, each running op on
// an empty input.
func opSpec(label, op string, arg []byte, parts int) *engine.RemoteStageSpec {
	spec := &engine.RemoteStageSpec{Label: label, Ops: []engine.RemoteOp{{Name: op, Arg: arg}}}
	for p := 0; p < parts; p++ {
		spec.Tasks = append(spec.Tasks, engine.RemoteTask{Part: p, Root: &engine.RemoteNode{
			Part: p, Inputs: []engine.RemoteInput{{Kind: engine.InputEmpty}},
		}})
	}
	return spec
}

// blockStage builds a parts-task stage of op over stored data: task p
// reads the concatenation of its own block, a block shared by every task,
// and — from task lateFrom on — a second shared block first needed there.
// It returns the spec and the sequential reference: every task evaluated
// in this process over the same blocks.
func blockStage(t *testing.T, pool *Pool, op string, parts, lateFrom int) (*engine.RemoteStageSpec, []engine.Batch) {
	t.Helper()
	local := map[uint64]engine.Batch{}
	fetch := func(id uint64) (engine.Batch, error) { return local[id], nil }
	put := func(p int) uint64 {
		b, err := engine.RunRemoteTask([]engine.RemoteOp{{Name: "htest.gen"}}, &engine.RemoteTask{Part: p, Root: &engine.RemoteNode{
			Part: p, Inputs: []engine.RemoteInput{{Kind: engine.InputEmpty}}}}, fetch)
		if err != nil {
			t.Fatal(err)
		}
		id, err := pool.PutBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		local[id] = b
		return id
	}
	shared, late := put(1000), put(1001)
	spec := &engine.RemoteStageSpec{Label: op + "-stage", Ops: []engine.RemoteOp{{Name: op}}}
	for p := 0; p < parts; p++ {
		ins := []engine.RemoteInput{{Kind: engine.InputBlock, Block: put(p)}, {Kind: engine.InputBlock, Block: shared}}
		if p >= lateFrom {
			ins = append(ins, engine.RemoteInput{Kind: engine.InputBlock, Block: late})
		}
		spec.Tasks = append(spec.Tasks, engine.RemoteTask{Part: p, Root: &engine.RemoteNode{
			Part: p, Inputs: []engine.RemoteInput{{Kind: engine.InputConcat, Concat: ins}}}})
	}
	want := make([]engine.Batch, parts)
	for i := range spec.Tasks {
		b, err := engine.RunRemoteTask(spec.Ops, &spec.Tasks[i], fetch)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = b
	}
	return spec, want
}

// blamed returns the tasks st recorded a worker death against.
func blamed(st *stageRun) map[int]int {
	out := map[int]int{}
	for ti, gens := range st.failedOn {
		if len(gens) > 0 {
			out[ti] = len(gens)
		}
	}
	return out
}

// TestWindowBlamesOnlyOldest: a kill that lands while a worker holds a
// window of tasks blames only its oldest unanswered task — the one it was
// running — and requeues the rest blame-free. Re-dispatched to the
// respawned worker, whose block cache starts empty, the tasks carry their
// blocks again and the stage still equals the sequential reference.
func TestWindowBlamesOnlyOldest(t *testing.T) {
	// One worker, so the whole stage queues on it: the 6th dispatch lands
	// while task 0 naps and tasks 1-5 wait behind it.
	pool := startPool(t, Config{Workers: 1, KillAfterTasks: 6, RespawnBackoff: 10 * time.Millisecond})
	first := pool.snapshotWorkers()[0].gen
	spec, want := blockStage(t, pool, "htest.nap", 12, 12)
	st := pool.newStageRun(spec)
	if err := pool.runStage(context.Background(), st); err != nil {
		t.Fatalf("stage with a mid-window kill: %v", err)
	}
	if got := pool.Stats().MachineCrashes; got != 1 {
		t.Fatalf("MachineCrashes = %d, want 1", got)
	}
	// The kill lands right after the 6th send, while task 0 naps: unless
	// the driver stalled past the nap, task 0 is the oldest unanswered.
	got := blamed(st)
	for ti, n := range got {
		if len(got) != 1 || n != 1 || ti >= 6 || !st.failedOn[ti][first] {
			t.Fatalf("blamed tasks %v (task %d on %v), want one of the 6 dispatched tasks, once, on the first incarnation %d", got, ti, st.failedOn[ti], first)
		}
	}
	if len(got) != 1 {
		t.Fatalf("blamed tasks %v, want exactly one", got)
	}
	if !reflect.DeepEqual(st.parts, want) {
		t.Fatalf("parts differ from the sequential reference:\n got %v\nwant %v", st.parts, want)
	}
}

// TestDroppedFrameBlamesDroppedTask: a task frame lost on the wire must
// take the blame itself, with the rest of the window requeued blame-free,
// whichever way the worker gives the loss away — by answering a younger
// task first, or by exiting on a block that only the lost frame carried.
// Neither needs the task deadline, which is set only as a backstop.
func TestDroppedFrameBlamesDroppedTask(t *testing.T) {
	for _, tc := range []struct {
		name     string
		lateFrom int // first task reading the late block
	}{
		{"younger reply", 8},
		{"missing inline block", 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Frame 7 is task 6's: it never reaches the worker. The
			// requeued tasks 6 and 7 go out as frames 9 and 10.
			const deadline = 10 * time.Second
			pool := startPool(t, Config{Workers: 1, TaskDeadline: deadline, RespawnBackoff: 10 * time.Millisecond,
				Faults: FaultPlan{DropEveryFrames: 7}})
			spec, want := blockStage(t, pool, "htest.ok", 8, tc.lateFrom)
			st := pool.newStageRun(spec)
			start := time.Now()
			if err := pool.runStage(context.Background(), st); err != nil {
				t.Fatalf("stage with a dropped frame: %v", err)
			}
			if took := time.Since(start); took >= deadline/2 {
				t.Fatalf("stage took %v: the loss went unnoticed until the deadline", took)
			}
			if got := blamed(st); !reflect.DeepEqual(got, map[int]int{6: 1}) {
				t.Fatalf("blamed tasks %v, want only the dropped task 6", got)
			}
			if !reflect.DeepEqual(st.parts, want) {
				t.Fatalf("parts differ from the sequential reference:\n got %v\nwant %v", st.parts, want)
			}
		})
	}
	// The lost frame is the one carrying the stage's operator table: the
	// worker exits on the next frame, whose task needs the table, and only
	// the task of the lost frame is blamed. Six one-task-per-frame filler
	// tasks make a second stage's first task frame 7; its three tasks,
	// requeued, go out as frames 10 to 12.
	t.Run("missing operator table", func(t *testing.T) {
		const deadline = 10 * time.Second
		pool := startPool(t, Config{Workers: 1, TaskDeadline: deadline, RespawnBackoff: 10 * time.Millisecond,
			Faults: FaultPlan{DropEveryFrames: 7}})
		if _, err := pool.RunRemoteStage(context.Background(), opSpec("filler", "htest.ok", nil, 6)); err != nil {
			t.Fatalf("filler stage: %v", err)
		}
		st := pool.newStageRun(opSpec("table-stage", "htest.gen", nil, 3))
		start := time.Now()
		if err := pool.runStage(context.Background(), st); err != nil {
			t.Fatalf("stage with a dropped table frame: %v", err)
		}
		if took := time.Since(start); took >= deadline/2 {
			t.Fatalf("stage took %v: the loss went unnoticed until the deadline", took)
		}
		if got := blamed(st); !reflect.DeepEqual(got, map[int]int{0: 1}) {
			t.Fatalf("blamed tasks %v, want only the dropped task 0", got)
		}
		for p, b := range st.parts {
			if want := []int{p * 10, p*10 + 1, p*10 + 2}; !reflect.DeepEqual(b.Data(), want) {
				t.Fatalf("part %d = %v, want %v", p, b, want)
			}
		}
	})
}

// TestRunTaskRefusesUnsentBlock: a worker never computes over a block or
// an operator table it was not sent. runTask reports a protocol break
// (ok=false, the worker exits) instead of evaluating the task over a
// missing input or kernel; with both inline the same task runs.
func TestRunTaskRefusesUnsentBlock(t *testing.T) {
	task := engine.RemoteTask{Root: &engine.RemoteNode{
		Inputs: []engine.RemoteInput{{Kind: engine.InputBlock, Block: 9}}}}
	ops := []engine.RemoteOp{{Name: "htest.ok"}}
	frame, err := engine.EncodeBatch(nil, &engine.Vec[any]{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := []inlineBlock{{id: 9, frame: frame}}
	if _, ok := newWorkerState().runTask(&taskFrame{id: 1, stage: 1, ops: ops, task: task, nops: 1}); ok {
		t.Fatal("ran a task over a block that was never sent")
	}
	if _, ok := newWorkerState().runTask(&taskFrame{id: 1, stage: 1, blocks: blocks, task: task, nops: 1}); ok {
		t.Fatal("ran a task whose operator table was never sent")
	}
	out, ok := newWorkerState().runTask(&taskFrame{id: 2, stage: 1, ops: ops, blocks: blocks, task: task, nops: 1})
	if _, done, _, err := parseTagged(out); !ok || !done || err != nil {
		t.Fatalf("task with its block and table inline: ok=%v done=%v err=%v", ok, done, err)
	}
}

// waitLive polls until the pool reports at least n live workers.
func waitLive(t *testing.T, p *Pool, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.LiveWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never recovered to %d live workers (now %d)", n, p.LiveWorkers())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRespawnRestoresFleet kills a worker mid-run (KillAfterTasks) with
// respawn on: the run must still be correct, a replacement must join, and
// the fleet must return to full strength.
func TestRespawnRestoresFleet(t *testing.T) {
	rec := obs.NewRecorder()
	pool := startPool(t, Config{Workers: 2, KillAfterTasks: 10, RespawnBackoff: 10 * time.Millisecond, Events: rec})
	sp := tasks.ChaosSpec{Records: 2000, Keys: 50, Parts: 4, Rounds: 2}

	var out tasks.Outcome
	withBackend(t, pool, func() { out = sp.Run(cluster.Config{}) })
	if out.Err != nil {
		t.Fatalf("run with respawn: %v", out.Err)
	}
	if want := sp.Reference(); !reflect.DeepEqual(out.Value, want) {
		t.Fatalf("value %+v != reference %+v", out.Value, want)
	}
	if pool.Stats().MachineCrashes == 0 {
		t.Fatal("kill hook never fired")
	}
	waitLive(t, pool, 2)
	if pool.Respawns() == 0 {
		t.Fatal("no respawn recorded despite restored fleet")
	}
	report := rec.Report()
	if !strings.Contains(report, "crash") || !strings.Contains(report, "respawn") {
		t.Fatalf("fault events missing crash/respawn:\n%s", report)
	}
}

// TestQuorumLostFailsFast: with respawn disabled and the whole fleet
// dead, dispatch must fail immediately with engine.QuorumLostError — not
// burn the full QuorumWait, and never deadlock.
func TestQuorumLostFailsFast(t *testing.T) {
	pool := startPool(t, Config{Workers: 1, DisableRespawn: true, QuorumWait: 30 * time.Second})
	w := pool.snapshotWorkers()[0]
	p0 := time.Now()
	pool.markDead(w, fmt.Errorf("test: induced death"))
	spec := opSpec("quorum-stage", "htest.ok", nil, 2)
	_, err := pool.RunRemoteStage(context.Background(), spec)
	elapsed := time.Since(p0)
	var q *engine.QuorumLostError
	if !errors.As(err, &q) {
		t.Fatalf("got %v, want QuorumLostError", err)
	}
	if q.Stage != "quorum-stage" || q.Live != 0 || q.Min != 1 {
		t.Fatalf("bad quorum error: %+v", q)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("quorum failure took %v; should fail fast when no respawn can come", elapsed)
	}
}

// TestPoisonTaskQuarantine dispatches a task that exits the worker
// process, every time, at the head of a full window of healthy tasks.
// After it has destroyed quarantineAfter distinct worker incarnations the
// stage must fail with engine.PoisonTaskError naming the operator — its
// window neighbours never blamed — and the pool must stay live for the
// next job.
func TestPoisonTaskQuarantine(t *testing.T) {
	rec := obs.NewRecorder()
	pool := startPool(t, Config{Workers: 2, RespawnBackoff: 10 * time.Millisecond, Events: rec})
	spec := opSpec("poison-stage", "htest.ok", nil, 2*(dispatchWindow+4))
	spec.Ops = append(spec.Ops, engine.RemoteOp{Name: "htest.exit"})
	spec.Tasks[0].Root.Op = 1
	st := pool.newStageRun(spec)
	err := pool.runStage(context.Background(), st)
	var pe *engine.PoisonTaskError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want PoisonTaskError", err)
	}
	if pe.Workers != quarantineAfter || pe.Part != 0 {
		t.Fatalf("quarantined task %d after %d workers, want task 0 after %d", pe.Part, pe.Workers, quarantineAfter)
	}
	if !strings.Contains(err.Error(), "htest.exit") {
		t.Fatalf("quarantine error does not name the operator chain: %v", err)
	}
	if got := blamed(st); !reflect.DeepEqual(got, map[int]int{0: quarantineAfter}) {
		t.Fatalf("blamed tasks %v, want only the poison task 0", got)
	}
	if pool.Quarantines() != 1 {
		t.Fatalf("Quarantines() = %d, want 1", pool.Quarantines())
	}

	// The pool is still a functioning pool: fleet recovers, healthy
	// stages run.
	waitLive(t, pool, 1)
	res, err := pool.RunRemoteStage(context.Background(), opSpec("after-poison", "htest.ok", nil, 3))
	if err != nil {
		t.Fatalf("healthy stage after quarantine: %v", err)
	}
	if len(res.Parts) != 3 {
		t.Fatalf("healthy stage returned %d parts, want 3", len(res.Parts))
	}
	if !strings.Contains(rec.Report(), "quarantine") {
		t.Fatalf("no quarantine fault event:\n%s", rec.Report())
	}
}

// TestTaskDeadlineRequeues wedges a task on its first execution (it
// ignores everything, forever). The deadline must kill the stuck worker,
// requeue the task, and the retry — which sees the flag file — must
// complete the stage. One incarnation died, no quarantine.
func TestTaskDeadlineRequeues(t *testing.T) {
	flag := filepath.Join(t.TempDir(), "hung-once")
	pool := startPool(t, Config{Workers: 2, TaskDeadline: 500 * time.Millisecond, RespawnBackoff: 10 * time.Millisecond})
	res, err := pool.RunRemoteStage(context.Background(), opSpec("deadline-stage", "htest.hang", []byte(flag), 1))
	if err != nil {
		t.Fatalf("stage with one wedged attempt: %v", err)
	}
	if len(res.Parts) != 1 {
		t.Fatalf("got %d parts, want 1", len(res.Parts))
	}
	if got := pool.Stats().MachineCrashes; got == 0 {
		t.Fatal("deadline never killed the wedged worker")
	}
	if pool.Quarantines() != 0 {
		t.Fatalf("single deadline kill quarantined the task (%d quarantines)", pool.Quarantines())
	}
}

// TestCtxCancelStopsDispatch covers the SubmitJobCtx plumbing at the pool
// level: a pre-cancelled context dispatches nothing, and a mid-flight
// cancellation returns promptly, dropping the pending replies without
// killing any worker.
func TestCtxCancelStopsDispatch(t *testing.T) {
	pool := startPool(t, Config{Workers: 2})

	// Pre-cancelled: not a single task may reach a worker (the op would
	// kill it, which is the proof).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pool.RunRemoteStage(ctx, opSpec("cancelled-stage", "htest.exit", nil, 4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled dispatch: got %v, want context.Canceled", err)
	}
	if got := pool.Stats().MachineCrashes; got != 0 {
		t.Fatalf("pre-cancelled stage still dispatched (crashes=%d)", got)
	}

	// Mid-flight: tasks are sleeping on workers; cancellation must
	// return well before they finish, and the workers stay alive.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel2()
	}()
	p0 := time.Now()
	_, err := pool.RunRemoteStage(ctx2, opSpec("sleepy-stage", "htest.sleep", nil, 2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel: got %v, want context.Canceled", err)
	}
	if elapsed := time.Since(p0); elapsed > 250*time.Millisecond {
		t.Fatalf("cancelled stage returned after %v; should not wait for the sleep", elapsed)
	}
	if pool.LiveWorkers() != 2 {
		t.Fatalf("cancel killed a worker (live=%d)", pool.LiveWorkers())
	}

	// The abandoned sleepers finish on their own; the pool still serves.
	res, err := pool.RunRemoteStage(context.Background(), opSpec("after-cancel", "htest.ok", nil, 2))
	if err != nil {
		t.Fatalf("stage after cancellation: %v", err)
	}
	if len(res.Parts) != 2 {
		t.Fatalf("got %d parts, want 2", len(res.Parts))
	}
}

// TestCloseDrainsEverything: after Close, no worker process may survive
// (drained or killed, but always reaped) and the pool's temp directory —
// socket, spill files — must be gone.
func TestCloseDrainsEverything(t *testing.T) {
	pool, err := Start(Config{Workers: 3, DrainTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if _, err := pool.RunRemoteStage(context.Background(), opSpec("pre-close", "htest.ok", nil, 3)); err != nil {
		t.Fatalf("stage: %v", err)
	}
	var pids []int
	for _, w := range pool.snapshotWorkers() {
		pids = append(pids, w.pid)
	}
	dir := pool.dir
	pool.Close()
	for _, pid := range pids {
		// After the reap the pid must be gone entirely — ESRCH, not a
		// zombie that still answers signal 0.
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Fatalf("worker pid %d survived Close (kill(0) = %v)", pid, err)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("pool dir %s survived Close (stat err %v)", dir, err)
	}
	// Close is idempotent.
	pool.Close()
}

// TestRaceMarkDeadVsDispatch hammers dispatch while concurrently
// declaring workers dead — the -race interleaving test for the pending
// map, the slot list, and the respawn bookkeeping. Any per-stage outcome
// (success or quorum loss) is fine; the invariant is no race, no panic,
// no deadlock.
func TestRaceMarkDeadVsDispatch(t *testing.T) {
	pool := startPool(t, Config{Workers: 2, RespawnBackoff: time.Millisecond, RespawnBudget: 1000, QuorumWait: 5 * time.Second})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if ws := pool.liveWorkers(); len(ws) > 0 {
				pool.markDead(ws[i%len(ws)], fmt.Errorf("test: race kill %d", i))
			}
			// Paced so respawned workers get long enough to serve a few
			// tasks: the point is the interleaving, not a dead pool.
			time.Sleep(25 * time.Millisecond)
		}
	}()
	for i := 0; i < 15; i++ {
		_, err := pool.RunRemoteStage(context.Background(), opSpec("race-stage", "htest.ok", nil, 4))
		if err != nil {
			// Under a sustained external kill storm both degradations are
			// legitimate: quorum loss, or quarantine of a task that
			// happened to be in flight on three murdered incarnations.
			var q *engine.QuorumLostError
			var pe *engine.PoisonTaskError
			if !errors.As(err, &q) && !errors.As(err, &pe) {
				t.Fatalf("iteration %d: unexpected error %v", i, err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestWorkerDiesBetweenPutAndLaunch registers a block, kills a worker in
// the gap before dispatch, and launches a stage reading the block: the
// driver-resident block must survive the death and the stage must
// complete on the remaining fleet.
func TestWorkerDiesBetweenPutAndLaunch(t *testing.T) {
	pool := startPool(t, Config{Workers: 2, RespawnBackoff: 5 * time.Millisecond})
	id, err := pool.PutBlock(&engine.Vec[any]{})
	if err != nil {
		t.Fatalf("PutBlock: %v", err)
	}
	pool.markDead(pool.snapshotWorkers()[0], fmt.Errorf("test: died after PutBlock"))
	spec := &engine.RemoteStageSpec{Label: "put-then-die", Ops: []engine.RemoteOp{{Name: "identity"}}, Tasks: []engine.RemoteTask{{
		Part: 0,
		Root: &engine.RemoteNode{Part: 0,
			Inputs: []engine.RemoteInput{{Kind: engine.InputBlock, Block: id}}},
	}}}
	res, err := pool.RunRemoteStage(context.Background(), spec)
	if err != nil {
		t.Fatalf("stage after worker death: %v", err)
	}
	if len(res.Parts) != 1 {
		t.Fatalf("got %d parts, want 1", len(res.Parts))
	}
}
