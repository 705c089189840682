package procpool

import (
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

	// Per-worker block cache, filled from the blocks tasks carry inline:
	// shared blocks (broadcasts, fan-in reads) cross the wire once per
	// worker. Ids are never reused by the driver, so caching by id alone
	// is safe; clearCache bounds its memory to a job's working set.
	cache := map[uint64]engine.Batch{}

	// Tasks run one at a time in arrival order, so the driver's oldest
	// unanswered task is always the one executing here.
	for {
		typ, body, err := readFrame(conn)
		if err != nil {
			return 0 // driver hung up (pool closed, driver exited)
		}
		switch typ {
		case msgTask:
			id, blocks, task, perr := parseTask(body)
			if perr != nil {
				fmt.Fprintf(os.Stderr, "procpool worker: %v\n", perr)
				return 1
			}
			out, ok := runTask(id, blocks, task, cache)
			if !ok {
				return 1
			}
			if send(msgTaskResult, out) != nil {
				return 0
			}
		case msgClearCache:
			cache = map[uint64]engine.Batch{}
		case msgShutdown:
			return 0
		default:
			fmt.Fprintf(os.Stderr, "procpool worker: unexpected frame type %d\n", typ)
			return 1
		}
	}
}

// runTask caches a task's inline blocks, runs it and encodes its result
// frame. A block read that is neither cached nor inline means the frame
// carrying it was lost: ok=false makes the worker exit, and the driver
// blames that lost task, its oldest unanswered.
func runTask(id uint64, blocks []inlineBlock, task *engine.RemoteTask, cache map[uint64]engine.Batch) (out []byte, ok bool) {
	fail := func(err error) ([]byte, bool) { return encodeTagged(id, false, []byte(err.Error())), true }
	for _, blk := range blocks {
		b, _, err := engine.DecodeBatch(blk.frame)
		if err != nil {
			return fail(fmt.Errorf("procpool: decode block %d: %w", blk.id, err))
		}
		cache[blk.id] = b
	}
	for _, bid := range taskBlocks(nil, task) {
		if _, hit := cache[bid]; !hit {
			fmt.Fprintf(os.Stderr, "procpool worker: task %d reads block %d that was never sent; exiting\n", id, bid)
			return nil, false
		}
	}
	b, err := engine.RunRemoteTask(task, func(id uint64) (engine.Batch, error) { return cache[id], nil })
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
	return encodeTagged(id, true, payload), true
}
