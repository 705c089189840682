package procpool

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"matryoshka/internal/engine"
)

// socketEnv carries the pool's unix socket path into spawned workers. Its
// presence is what distinguishes a worker re-exec from a normal launch.
const socketEnv = "MATRYOSHKA_PROCPOOL_SOCKET"

// IsWorker reports whether this process was spawned as a pool worker.
// Binaries that may host a pool (matbench, test binaries via TestMain)
// must check it first thing in main and divert to WorkerMain — before
// flag parsing, before tests, before anything that prints.
func IsWorker() bool { return os.Getenv(socketEnv) != "" }

// WorkerMain runs the worker protocol loop and exits the process; it
// never returns. Operator and batch-shape registrations happened in init
// functions by the time main runs, so the worker resolves exactly the
// names the driver registered — they are the same binary.
func WorkerMain() {
	os.Exit(workerRun(os.Getenv(socketEnv)))
}

func workerRun(sock string) int {
	conn, err := net.Dial("unix", sock)
	if err != nil {
		fmt.Fprintf(os.Stderr, "procpool worker: dial: %v\n", err)
		return 1
	}
	defer conn.Close()

	// The heartbeat goroutine and the task loop share the connection;
	// writes must not interleave.
	var wmu sync.Mutex
	send := func(typ byte, body []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		return writeFrame(conn, typ, body)
	}

	if err := send(msgHello, encodeHello(os.Getpid())); err != nil {
		fmt.Fprintf(os.Stderr, "procpool worker: hello: %v\n", err)
		return 1
	}
	typ, body, err := readFrame(conn)
	if err != nil || typ != msgHelloAck {
		fmt.Fprintf(os.Stderr, "procpool worker: handshake: type %d err %v\n", typ, err)
		return 1
	}
	_, beatEvery, err := parseHelloAck(body)
	if err != nil {
		fmt.Fprintf(os.Stderr, "procpool worker: handshake: %v\n", err)
		return 1
	}

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		t := time.NewTicker(beatEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if send(msgHeartbeat, nil) != nil {
					return
				}
			}
		}
	}()

	// Frames are read through a buffer from here on: the handshake above
	// read exactly its one frame, so no byte is lost to the switch.
	in := bufio.NewReader(conn)
	state := newWorkerState()

	// Tasks run one at a time in arrival order, so the driver's oldest
	// unanswered task is always the one executing here.
	for {
		typ, body, err := readFrame(in)
		if err != nil {
			return 0 // driver hung up (pool closed, driver exited)
		}
		switch typ {
		case msgTask:
			f, perr := parseTask(body)
			if perr != nil {
				fmt.Fprintf(os.Stderr, "procpool worker: %v\n", perr)
				return 1
			}
			out, ok := state.runTask(&f)
			if !ok {
				return 1
			}
			if send(msgTaskResult, out) != nil {
				return 0
			}
		case msgClearCache:
			state = newWorkerState()
		case msgShutdown:
			return 0
		default:
			fmt.Fprintf(os.Stderr, "procpool worker: unexpected frame type %d\n", typ)
			return 1
		}
	}
}

// workerState is what a worker incarnation keeps between tasks, filled
// from what task frames carry inline and dropped at msgClearCache (the end
// of a job): decoded blocks by id, so shared blocks (broadcasts, fan-in
// reads) cross the wire once per worker, and each stage's compiled
// operator table by stage id, so every kernel is built once per stage.
// The driver never reuses a block or stage id.
type workerState struct {
	cache  map[uint64]engine.Batch
	tables map[uint64]stageTable
	ids    []uint64 // scratch: the running task's block ids
}

// stageTable is one stage's operator table as this worker compiled it. A
// table whose kernels failed to build keeps the error, which every task of
// the stage then reports.
type stageTable struct {
	kernels engine.StageKernels
	err     error
}

func newWorkerState() *workerState {
	return &workerState{cache: map[uint64]engine.Batch{}, tables: map[uint64]stageTable{}}
}

// runTask caches a task frame's inline blocks and operator table, runs the
// task with the stage's compiled kernels and encodes its result frame. A
// block or table that is neither cached nor inline means the frame
// carrying it was lost: ok=false makes the worker exit, and the driver
// blames that lost task, its oldest unanswered.
func (s *workerState) runTask(f *taskFrame) (out []byte, ok bool) {
	fail := func(err error) ([]byte, bool) { return encodeTagged(f.id, false, []byte(err.Error())), true }
	if f.ops != nil {
		k, err := engine.CompileOps(f.ops)
		s.tables[f.stage] = stageTable{kernels: k, err: err}
	}
	for _, blk := range f.blocks {
		b, _, err := engine.DecodeBatch(blk.frame)
		if err != nil {
			return fail(fmt.Errorf("procpool: decode block %d: %w", blk.id, err))
		}
		s.cache[blk.id] = b
	}
	tbl, have := s.tables[f.stage]
	if !have {
		fmt.Fprintf(os.Stderr, "procpool worker: task %d needs the operator table of stage %d, which was never sent; exiting\n", f.id, f.stage)
		return nil, false
	}
	s.ids = taskBlocks(s.ids[:0], &f.task)
	for _, bid := range s.ids {
		if _, hit := s.cache[bid]; !hit {
			fmt.Fprintf(os.Stderr, "procpool worker: task %d reads block %d that was never sent; exiting\n", f.id, bid)
			return nil, false
		}
	}
	if tbl.err != nil {
		return fail(tbl.err)
	}
	if err := f.checkTable(len(tbl.kernels)); err != nil {
		fmt.Fprintf(os.Stderr, "procpool worker: %v; exiting\n", err)
		return nil, false
	}
	b, err := tbl.kernels.Run(&f.task, func(id uint64) (engine.Batch, error) { return s.cache[id], nil })
	if err != nil {
		return fail(err)
	}
	if b == nil {
		b = &engine.Vec[any]{}
	}
	payload, err := engine.EncodeBatch(nil, b)
	if err != nil {
		return fail(err)
	}
	return encodeTagged(f.id, true, payload), true
}
