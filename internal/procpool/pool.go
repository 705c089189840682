package procpool

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"matryoshka/internal/cluster"
	"matryoshka/internal/engine"
	"matryoshka/internal/obs"
)

// Config sizes a Pool. The zero value means defaults.
type Config struct {
	// Workers is how many worker slots the pool maintains (default
	// min(4, NumCPU)). A slot whose process dies is refilled by respawn
	// (unless DisableRespawn), so the fleet does not monotonically shrink
	// under sustained faults.
	Workers int
	// MemoryBudget bounds the driver-side block store in bytes before
	// frames spill to per-block temp files (default 256 MiB).
	MemoryBudget int64
	// HeartbeatEvery is how often workers beat (default 100ms);
	// HeartbeatTimeout is how long a silent worker stays presumed-live
	// before it is declared crashed (default 3s).
	HeartbeatEvery   time.Duration
	HeartbeatTimeout time.Duration
	// HeartbeatCheck is how often the driver-side monitor scans for stale
	// workers and overrun tasks (default min(HeartbeatTimeout,
	// TaskDeadline)/4, clamped to [10ms, 1s]). It only bounds detection
	// latency, so it deliberately does not track HeartbeatEvery — a short
	// beat period must not make the driver poll needlessly hot.
	HeartbeatCheck time.Duration
	// TaskDeadline bounds how long one dispatched task may run (0 = no
	// deadline). Its clock starts when the task becomes the oldest
	// unanswered task on its worker — when the worker starts running it.
	// A task that exceeds it on a live, heartbeating worker is
	// cancelled — the worker is killed and respawned, the task requeued —
	// so a wedged compute cannot stall a stage forever.
	TaskDeadline time.Duration
	// DisableRespawn turns worker respawn off: a dead worker stays dead,
	// as in the pre-self-healing pool. The crash-recovery tests use it to
	// pin the fleet size.
	DisableRespawn bool
	// RespawnBudget caps replacement workers over the pool's lifetime
	// (default 32); past it the pool degrades to quorum failure instead
	// of respawning a crash loop forever.
	RespawnBudget int
	// RespawnBackoff is the delay before refilling a dead slot (default
	// 50ms). It doubles per consecutive fast death of that slot (capped
	// at 2s); an incarnation that survived a while resets the doubling.
	RespawnBackoff time.Duration
	// MinLive is the dispatch quorum (default 1): a stage waits up to
	// QuorumWait (default 2s) for respawn to restore at least MinLive
	// workers, then fails with engine.QuorumLostError — which the engine
	// turns into a fetch-style failure for the bounded job retry, never a
	// deadlock.
	MinLive    int
	QuorumWait time.Duration
	// DrainTimeout bounds Close's graceful drain: workers get msgShutdown
	// and this long to exit before SIGKILL (default 2s).
	DrainTimeout time.Duration
	// KillAfterTasks, when >0, SIGKILLs the assigned worker immediately
	// after the Nth task dispatch of the pool's lifetime (1-based) — the
	// deterministic mid-stage crash the recovery tests inject. For
	// repeating kills and transport faults, use Faults.
	KillAfterTasks int
	// Faults is the seeded fault-injection plan (chaos.go): repeating
	// worker kills, delayed/dropped/torn data-plane frames, spill-file
	// corruption. Zero value injects nothing.
	Faults FaultPlan
	// Events, when non-nil, receives the pool's fault events — kinds
	// "crash", "respawn", "quarantine", "corrupt-block" — timed on the
	// pool clock, so EXPLAIN ANALYZE renders real process churn next to
	// the simulator's crash/rejoin vocabulary.
	Events *obs.Recorder
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = 4
		if n := runtime.NumCPU(); n < c.Workers {
			c.Workers = n
		}
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 256 << 20
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 100 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 3 * time.Second
	}
	if c.RespawnBudget <= 0 {
		c.RespawnBudget = 32
	}
	if c.RespawnBackoff <= 0 {
		c.RespawnBackoff = 50 * time.Millisecond
	}
	if c.MinLive <= 0 {
		c.MinLive = 1
	}
	if c.QuorumWait <= 0 {
		c.QuorumWait = 2 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 2 * time.Second
	}
}

// heartbeatCheck is the monitor's scan interval (see Config.HeartbeatCheck).
func (c *Config) heartbeatCheck() time.Duration {
	if c.HeartbeatCheck > 0 {
		return c.HeartbeatCheck
	}
	d := c.HeartbeatTimeout / 4
	if c.TaskDeadline > 0 {
		d = min(d, c.TaskDeadline/4)
	}
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// quarantineAfter is K in the poison-task rule: a task that kills (or
// deadline-times-out on) this many distinct worker incarnations is
// quarantined — the stage fails fast with the operator chain named instead
// of the task serially destroying the fleet.
const quarantineAfter = 3

// dispatchWindow is how many tasks each worker holds in flight, so it is
// never idle waiting for the driver to see a reply and send the next.
const dispatchWindow = 16

// taskReply is what a dispatched task resolves to: a batch frame or an
// error message. died marks a worker death while the task was in flight
// (synthesized by markDead; blamed on the oldest, the one running), as
// opposed to an error the worker reported (deterministic compute failure).
type taskReply struct {
	payload []byte
	errMsg  string
	died    bool
	blamed  bool
}

// pendingTask is one sent, unanswered task on a worker.
type pendingTask struct {
	id       uint64
	ti, part int            // index in its stage spec, output partition
	ch       chan taskReply // buffered: the single reply never blocks
}

// workerProc is the driver's handle on one worker incarnation. A respawn
// installs a fresh workerProc (new gen) into the same slot; the old one
// stays dead forever, so in-flight dispatch goroutines holding it observe
// a stable corpse.
type workerProc struct {
	idx    int    // slot index (stable across respawns)
	gen    uint64 // pool-unique incarnation id (quarantine blame tracking)
	pid    int
	cmd    *exec.Cmd
	conn   net.Conn
	wmu    sync.Mutex      // serializes frame writes to conn, guards sent and tables
	sent   map[uint64]bool // blocks pushed since the worker's cache was cleared
	tables map[uint64]bool // stages whose operator table was pushed since then
	exited chan struct{}   // closed once cmd.Wait returned (process reaped)
	read   chan struct{}   // closed once readLoop returned

	mu        sync.Mutex
	dead      bool
	lastBeat  time.Time
	inflight  []pendingTask // sent, unanswered tasks, oldest first
	headSince time.Time     // when inflight[0] became the oldest
}

func (w *workerProc) send(typ byte, body []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return writeFrame(w.conn, typ, body)
}

func (w *workerProc) isDead() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dead
}

// pendingSpawn is a worker process that has been started but has not yet
// completed the socket handshake. handshake resolves done with the
// installed workerProc, or nil when the handshake failed.
type pendingSpawn struct {
	idx  int
	pid  int
	cmd  *exec.Cmd
	done chan *workerProc
}

// poolOutput mirrors the simulator's shuffle-residency bookkeeping: each
// partition records the worker index that "holds" it, or -(idx+1) once
// that worker crashed. The actual bytes stay on the driver's frontier —
// what this models is which results a real cluster would have lost, so
// the engine's lineage recovery is exercised by real process deaths.
type poolOutput struct {
	locs    []int
	counted bool // FetchFailures already incremented for this output
}

// Pool is a process-pool backend for engine sessions: real worker
// processes run portable stages, wall-clock replaces the simulated clock,
// and worker crashes surface as fetch failures the engine recovers from.
// Create with Start, stop with Close. A Pool may serve many sequential
// sessions (the engine runs one stage at a time per session; Pools are
// not meant to be shared by concurrent sessions).
//
// The pool self-heals: dead workers are re-exec'd with backoff (health.go)
// up to a budget, so sustained faults churn the fleet instead of shrinking
// it to zero.
type Pool struct {
	cfg   Config
	dir   string
	exe   string // re-exec path for respawns
	sock  string
	ln    net.Listener
	store *blockStore
	start time.Time

	stopCh chan struct{} // closed by Close

	taskSeq   uint64 // atomic: wire task ids
	stageSeq  uint64 // atomic: wire stage ids (operator tables)
	genSeq    uint64 // atomic: worker incarnation ids
	frameSeq  uint64 // atomic: data-plane frames sent (fault-plan cadence)
	nDispatch int64  // atomic: lifetime dispatch count (kill hooks)
	shipped   int64  // atomic: bytes served to + returned by workers
	remoteSt  int64  // atomic: remote stages completed
	remoteTk  int64  // atomic: remote tasks completed

	mu          sync.Mutex
	closed      bool
	workerList  []*workerProc // fixed-size slots; entries replaced on respawn
	spawning    map[int]*pendingSpawn
	slotDeaths  []int // consecutive fast deaths per slot (backoff doubling)
	slotBorn    []time.Time
	respawnsIn  int // respawns in flight (quorum wait looks at this)
	respawnsUse int // respawns spent against the budget
	respawns    int // respawns completed
	quarantines int
	stats       cluster.Stats
	clockOffset float64
	lastClock   float64
	outputs     map[cluster.OutputID]*poolOutput
	nextOut     cluster.OutputID
	rrOut       int // round-robin cursor for RegisterOutput placement
}

// The three engine facets the pool provides.
var (
	_ engine.Backend      = (*Pool)(nil)
	_ engine.Residency    = (*Pool)(nil)
	_ engine.RemoteRunner = (*Pool)(nil)
)

// Start spawns the workers (re-execs of the current binary; see IsWorker)
// and waits for all of them to complete the socket handshake.
func Start(cfg Config) (*Pool, error) {
	cfg.defaults()
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("procpool: %w", err)
	}
	dir, err := os.MkdirTemp("", "matpool-")
	if err != nil {
		return nil, fmt.Errorf("procpool: %w", err)
	}
	sock := filepath.Join(dir, "pool.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("procpool: %w", err)
	}
	p := &Pool{
		cfg:        cfg,
		dir:        dir,
		exe:        exe,
		sock:       sock,
		ln:         ln,
		store:      newBlockStore(dir, cfg.MemoryBudget),
		start:      time.Now(),
		stopCh:     make(chan struct{}),
		workerList: make([]*workerProc, cfg.Workers),
		spawning:   map[int]*pendingSpawn{},
		slotDeaths: make([]int, cfg.Workers),
		slotBorn:   make([]time.Time, cfg.Workers),
		outputs:    map[cluster.OutputID]*poolOutput{},
	}
	p.store.damage = p.spillDamage()
	fail := func(err error) (*Pool, error) {
		p.Close()
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		if _, err := p.spawnInto(i); err != nil {
			return fail(err)
		}
	}
	ul := ln.(*net.UnixListener)
	for i := 0; i < cfg.Workers; i++ {
		ul.SetDeadline(time.Now().Add(10 * time.Second))
		conn, err := ln.Accept()
		if err != nil {
			return fail(fmt.Errorf("procpool: worker %d never connected: %w", i, err))
		}
		if _, err := p.handshake(conn); err != nil {
			return fail(err)
		}
	}
	ul.SetDeadline(time.Time{})
	go p.monitor()
	go p.acceptLoop()
	return p, nil
}

// Close shuts the pool down gracefully: every live worker gets a shutdown
// frame and DrainTimeout to exit on its own; stragglers are SIGKILLed.
// Every spawned process is reaped before Close returns (no orphans, no
// zombies), spilled block files and the socket directory are removed.
// Teardown deaths are not counted as crashes.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true // from here on, no handshake installs a worker
	spawning := p.spawning
	p.spawning = map[int]*pendingSpawn{}
	p.mu.Unlock()
	workers := p.snapshotWorkers()
	close(p.stopCh)
	p.ln.Close()
	// Processes that never completed the handshake just die (and are
	// reaped — they have no waitWorker goroutine).
	for _, ps := range spawning {
		if ps.cmd.Process != nil {
			ps.cmd.Process.Kill()
		}
		go ps.cmd.Wait()
	}
	// Graceful drain: ask, then wait bounded. The write deadline also
	// unblocks a dispatch stuck writing to a worker that stopped reading.
	deadline := time.Now().Add(p.cfg.DrainTimeout)
	for _, w := range workers {
		if !w.isDead() {
			w.conn.SetWriteDeadline(deadline)
			w.send(msgShutdown, nil)
		}
	}
	for _, w := range workers {
		select {
		case <-w.exited:
		case <-time.After(time.Until(deadline)):
		}
	}
	// The hard way for stragglers; then wait for the reap so no zombie
	// outlives Close (SIGKILL cannot be ignored, so this terminates).
	for _, w := range workers {
		w.conn.Close()
		if w.cmd.Process != nil {
			w.cmd.Process.Kill()
		}
	}
	for _, w := range workers {
		<-w.exited
	}
	p.store.clear()
	os.RemoveAll(p.dir)
}

// readLoop demuxes one worker's incoming frames. Any frame proves the
// worker alive; a read error means it died (or the pool is closing).
// Frames are read through a buffer: the handshake consumed exactly the
// hello, and everything after it is this loop's.
func (p *Pool) readLoop(w *workerProc) {
	defer close(w.read)
	in := bufio.NewReader(w.conn)
	for {
		typ, body, err := readFrame(in)
		if err != nil {
			p.markDead(w, fmt.Errorf("procpool: worker %d connection lost: %v", w.idx, err))
			return
		}
		w.mu.Lock()
		w.lastBeat = time.Now()
		w.mu.Unlock()
		switch typ {
		case msgHeartbeat:
			// lastBeat above is the whole message.
		case msgTaskResult:
			id, ok, rest, perr := parseTagged(body)
			if perr != nil {
				p.markDead(w, fmt.Errorf("procpool: worker %d sent a bad result: %v", w.idx, perr))
				return
			}
			// Replies come in send order. One for a younger task means
			// the oldest's frame was lost: kill the worker, so the lost
			// task takes the blame. Unknown ids were abandoned by a cancel.
			w.mu.Lock()
			k := slices.IndexFunc(w.inflight, func(t pendingTask) bool { return t.id == id })
			var t pendingTask
			if k == 0 {
				t = w.inflight[0]
				w.inflight = w.inflight[1:]
				w.headSince = time.Now()
			}
			w.mu.Unlock()
			switch {
			case k > 0:
				p.markDead(w, fmt.Errorf("procpool: worker %d answered a task sent after one it never received", w.idx))
				return
			case k == 0 && ok:
				t.ch <- taskReply{payload: rest}
			case k == 0:
				t.ch <- taskReply{errMsg: string(rest)}
			}
		}
	}
}

// exitDrainGrace bounds how long an exited worker's death waits for
// readLoop to drain what the worker wrote before it died.
const exitDrainGrace = time.Second

// waitWorker reaps the worker process; an exit before Close is a crash.
// The death is declared once readLoop has drained the connection, whose
// EOF follows the exit: replies the worker wrote before dying resolve
// their tasks first, so the blame falls on the task it died on, not on
// one whose answer was still unread.
func (p *Pool) waitWorker(w *workerProc) {
	err := w.cmd.Wait()
	select {
	case <-w.read:
	case <-time.After(exitDrainGrace):
	}
	p.markDead(w, fmt.Errorf("procpool: worker %d exited: %v", w.idx, err))
	close(w.exited)
}

// markDead records a worker crash exactly once: fail its in-flight tasks
// (the oldest, which was running, takes the blame), cut the connection,
// make sure the process is gone, mark every shuffle partition registered
// on it lost — the state CheckFetch turns into the FetchFailedError
// lineage recovery rewinds from — and schedule a replacement worker for
// the slot (health.go).
func (p *Pool) markDead(w *workerProc, reason error) {
	w.mu.Lock()
	if w.dead {
		w.mu.Unlock()
		return
	}
	w.dead = true
	pend := w.inflight
	w.inflight = nil
	w.mu.Unlock()

	w.conn.Close()
	if w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
	p.mu.Lock()
	closed := p.closed
	if !closed {
		p.stats.MachineCrashes++
		for _, out := range p.outputs {
			for i, loc := range out.locs {
				if loc == w.idx {
					out.locs[i] = -(w.idx + 1)
				}
			}
		}
		if !p.cfg.DisableRespawn {
			p.scheduleRespawnLocked(w.idx)
		}
	}
	p.mu.Unlock()
	if !closed {
		p.event("crash", w.idx, reason.Error())
	}
	// Replies go out last, so a dispatch that sees its task died also
	// sees the crash recorded: counted, outputs lost, respawn booked.
	for i, t := range pend {
		t.ch <- taskReply{died: true, blamed: i == 0}
	}
}

// liveWorkers snapshots the currently live workers under the pool lock.
func (p *Pool) liveWorkers() []*workerProc {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.liveLocked()
}

func (p *Pool) liveLocked() []*workerProc {
	live := make([]*workerProc, 0, len(p.workerList))
	for _, w := range p.workerList {
		if w != nil && !w.isDead() {
			live = append(live, w)
		}
	}
	return live
}

// snapshotWorkers copies the current slot contents (dead or alive).
func (p *Pool) snapshotWorkers() []*workerProc {
	p.mu.Lock()
	defer p.mu.Unlock()
	ws := make([]*workerProc, 0, len(p.workerList))
	for _, w := range p.workerList {
		if w != nil {
			ws = append(ws, w)
		}
	}
	return ws
}

// LiveWorkers reports how many workers are currently up.
func (p *Pool) LiveWorkers() int { return len(p.liveWorkers()) }

// Workers reports the pool's slot count.
func (p *Pool) Workers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workerList)
}

// RemoteStages and RemoteTasks count what actually ran in worker
// processes (the A/B tests assert they are nonzero: a silently
// driver-local run would still produce identical values).
func (p *Pool) RemoteStages() int { return int(atomic.LoadInt64(&p.remoteSt)) }

// RemoteTasks counts tasks completed by worker processes.
func (p *Pool) RemoteTasks() int { return int(atomic.LoadInt64(&p.remoteTk)) }

// BytesShipped totals the encoded frames that crossed process boundaries.
func (p *Pool) BytesShipped() int64 { return atomic.LoadInt64(&p.shipped) }

// Spills reports blocks (and bytes) the driver store spilled to disk.
func (p *Pool) Spills() (blocks int, bytes int64) { return p.store.spillStats() }

// Respawns reports how many replacement workers completed their handshake.
func (p *Pool) Respawns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.respawns
}

// Quarantines reports how many poison tasks were quarantined.
func (p *Pool) Quarantines() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.quarantines
}

// ---- engine.RemoteRunner ----

// PutBlock frames b with the batch codec and stores it for dispatch to
// push to workers (spilling to disk over the store's budget).
func (p *Pool) PutBlock(b engine.Batch) (uint64, error) {
	frame, err := engine.EncodeBatch(nil, b)
	if err != nil {
		return 0, err
	}
	return p.store.put(frame)
}

// errWorkerDead reports a dispatch to a worker that had already died: the
// task never left the driver and requeues blame-free.
var errWorkerDead = errors.New("procpool: worker is dead")

// stageRun is one stage's results and blame record. A round hands each
// task to one worker, so dispatch goroutines write disjoint entries.
type stageRun struct {
	id       uint64 // names the stage's operator table on the wire
	spec     *engine.RemoteStageSpec
	parts    []engine.Batch
	failedOn []map[uint64]bool // task -> worker incarnations blamed for its death
	ranOn    map[int]bool      // worker slots that completed tasks
}

func (p *Pool) newStageRun(spec *engine.RemoteStageSpec) *stageRun {
	n := len(spec.Tasks)
	return &stageRun{id: atomic.AddUint64(&p.stageSeq, 1), spec: spec, parts: make([]engine.Batch, n), failedOn: make([]map[uint64]bool, n), ranOn: map[int]bool{}}
}

// RunRemoteStage distributes the spec's tasks round-robin over live
// workers, dispatchWindow in flight per worker, and collects the decoded
// result partitions. A worker death blames only its oldest unanswered
// task, which is re-dispatched on a survivor — until quarantineAfter
// distinct incarnations died under it (engine.PoisonTaskError; the pool
// stays live). The rest of the dead worker's tasks requeue blame-free.
// Below the quorum the stage waits bounded for respawn, then fails with
// engine.QuorumLostError. Ctx cancellation stops dispatching and drops
// the pending replies.
func (p *Pool) RunRemoteStage(ctx context.Context, spec *engine.RemoteStageSpec) (*engine.RemoteStageResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(spec.Tasks) == 0 {
		return &engine.RemoteStageResult{}, nil
	}
	shippedBefore := atomic.LoadInt64(&p.shipped)
	st := p.newStageRun(spec)
	if err := p.runStage(ctx, st); err != nil {
		return nil, err
	}
	atomic.AddInt64(&p.remoteSt, 1)
	atomic.AddInt64(&p.remoteTk, int64(len(spec.Tasks)))
	return &engine.RemoteStageResult{
		Parts:        st.parts,
		BytesShipped: atomic.LoadInt64(&p.shipped) - shippedBefore,
		Workers:      len(st.ranOn),
	}, nil
}

// dispatched is what one worker's dispatch loop hands back to its round.
type dispatched struct {
	requeue []int
	ran     bool
	err     error
}

// runStage dispatches in rounds: each deals the queue round-robin over
// the live workers; what dead workers hand back forms the next round.
func (p *Pool) runStage(ctx context.Context, st *stageRun) error {
	queue := make([]int, len(st.spec.Tasks))
	for i := range queue {
		queue[i] = i
	}
	for len(queue) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		live, err := p.waitQuorum(ctx, st.spec.Label)
		if err != nil {
			return err
		}
		outs := make([]dispatched, len(live))
		var wg sync.WaitGroup
		for wi, w := range live {
			var list []int
			for k := wi; k < len(queue); k += len(live) {
				list = append(list, queue[k])
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[wi] = p.dispatch(ctx, w, st, list)
			}()
		}
		wg.Wait()
		queue = nil
		for wi, o := range outs {
			var pe *engine.PoisonTaskError
			if errors.As(o.err, &pe) {
				p.noteQuarantine(pe)
			}
			if err == nil {
				err = o.err
			}
			if o.ran {
				st.ranOn[live[wi].idx] = true
			}
			queue = append(queue, o.requeue...)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// dispatch runs list on w, dispatchWindow tasks in flight, taking replies
// oldest first — the order w answers in. Once w dies it sends no more;
// the in-flight tasks resolve as died and go back with the unsent rest.
func (p *Pool) dispatch(ctx context.Context, w *workerProc, st *stageRun, list []int) (out dispatched) {
	var window []pendingTask
	sc := pushScratch{seen: map[uint64]bool{}}
	next, alive := 0, true
	for {
		for alive && out.err == nil && next < len(list) && len(window) < dispatchWindow {
			t, err := p.pushTask(w, st, list[next], &sc)
			if errors.Is(err, errWorkerDead) {
				alive = false
			} else if err != nil {
				out.err = err
			} else {
				window = append(window, t)
				next++
			}
		}
		if len(window) == 0 {
			break
		}
		var r taskReply
		select {
		case r = <-window[0].ch:
		case <-ctx.Done():
			// The job is cancelled: drop the pending replies — nobody
			// wants them — and leave the worker alone (it finishes or
			// dies on its own).
			w.mu.Lock()
			w.inflight = nil
			w.mu.Unlock()
			return dispatched{err: ctx.Err()}
		}
		ti, task := window[0].ti, &st.spec.Tasks[window[0].ti]
		window = window[1:]
		alive = alive && !r.died
		switch {
		case r.blamed:
			if st.failedOn[ti] == nil {
				st.failedOn[ti] = map[uint64]bool{}
			}
			st.failedOn[ti][w.gen] = true
			if n := len(st.failedOn[ti]); n < quarantineAfter {
				out.requeue = append(out.requeue, ti)
			} else if out.err == nil {
				out.err = &engine.PoisonTaskError{Stage: st.spec.Label, Part: task.Part, Ops: st.spec.OpChain(task), Workers: n}
			}
		case r.died:
			out.requeue = append(out.requeue, ti)
		case r.errMsg != "":
			out.err = cmp.Or(out.err, fmt.Errorf("procpool: stage %q task %d: %s", st.spec.Label, task.Part, r.errMsg))
		default:
			b, _, err := engine.DecodeBatch(r.payload)
			if err != nil {
				out.err = cmp.Or(out.err, fmt.Errorf("procpool: stage %q task %d result: %v", st.spec.Label, task.Part, err))
			}
			atomic.AddInt64(&p.shipped, int64(len(r.payload)))
			st.parts[ti], out.ran = b, true
		}
	}
	if !alive {
		out.requeue = append(out.requeue, list[next:]...)
	}
	return out
}

// pushScratch is one dispatch loop's reusable buffers for building task
// frames.
type pushScratch struct {
	ids    []uint64
	seen   map[uint64]bool
	blocks []inlineBlock
}

// pushTask sends task ti of st to w, with the stage's operator table if w
// has not been sent it yet and every input block w has not been sent yet
// inline, and queues it as in flight. A block the store cannot serve
// intact fails the dispatch with *engine.BlockLostError, for lineage to
// recompute. The kill hooks (KillAfterTasks, FaultPlan) fire here on the
// lifetime dispatch counter, so the crash — and the lost-output
// bookkeeping — is ordered before any later stage of the run.
func (p *Pool) pushTask(w *workerProc, st *stageRun, ti int, sc *pushScratch) (pendingTask, error) {
	t := &st.spec.Tasks[ti]
	w.wmu.Lock()
	defer w.wmu.Unlock()
	clear(sc.seen)
	sc.blocks = sc.blocks[:0]
	sc.ids = taskBlocks(sc.ids[:0], t)
	var blockBytes int64
	for _, id := range sc.ids {
		if w.sent[id] || sc.seen[id] {
			continue
		}
		sc.seen[id] = true
		frame, err := p.store.get(id)
		var lost *engine.BlockLostError
		if errors.As(err, &lost) {
			p.mu.Lock()
			p.stats.FetchFailures++
			p.mu.Unlock()
			p.event("corrupt-block", w.idx, err.Error())
		}
		if err != nil {
			return pendingTask{}, err
		}
		sc.blocks = append(sc.blocks, inlineBlock{id, frame})
		blockBytes += int64(len(frame))
	}
	pt := pendingTask{id: atomic.AddUint64(&p.taskSeq, 1), ti: ti, part: t.Part, ch: make(chan taskReply, 1)}
	f := taskFrame{id: pt.id, stage: st.id, blocks: sc.blocks, task: *t}
	if !w.tables[st.id] {
		f.ops = st.spec.Ops
	}
	frame, err := appendTask(startFrame(msgTask, 64+int(blockBytes)), &f)
	if err != nil {
		return pendingTask{}, err
	}
	w.mu.Lock()
	if w.dead {
		w.mu.Unlock()
		return pendingTask{}, errWorkerDead
	}
	if len(w.inflight) == 0 {
		w.headSince = time.Now()
	}
	w.inflight = append(w.inflight, pt)
	w.mu.Unlock()
	for _, b := range sc.blocks {
		w.sent[b.id] = true
	}
	w.tables[st.id] = true
	if err := p.sendData(w, sealFrame(frame)); err != nil {
		p.markDead(w, fmt.Errorf("procpool: worker %d send failed: %v", w.idx, err))
		return pt, nil // resolved by markDead
	}
	atomic.AddInt64(&p.shipped, blockBytes)
	n := atomic.AddInt64(&p.nDispatch, 1)
	if k := p.cfg.KillAfterTasks; k > 0 && n == int64(k) {
		p.markDead(w, fmt.Errorf("procpool: worker %d killed by test hook after task %d", w.idx, k))
	}
	if p.cfg.Faults.killsAt(uint64(n)) {
		p.markDead(w, fmt.Errorf("procpool: worker %d killed by fault plan at dispatch %d", w.idx, n))
	}
	return pt, nil
}

// ---- engine.Backend ----

// StartJob counts the job; a real pool has no launch overhead to charge.
func (p *Pool) StartJob() {
	p.mu.Lock()
	p.stats.Jobs++
	p.mu.Unlock()
}

// RunStageReport reports the wall-clock the stage actually took (the
// delta since the previous report) and counts its tasks. The simulated
// per-task costs are ignored: this backend measures instead of modeling.
func (p *Pool) RunStageReport(tasks []cluster.Task) (cluster.StageReport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Stages++
	p.stats.Tasks += len(tasks)
	now := p.clockLocked()
	sec := now - p.lastClock
	p.lastClock = now
	p.stats.BusySeconds += sec
	return cluster.StageReport{
		Tasks:       len(tasks),
		Waves:       1,
		Makespan:    sec,
		Seconds:     sec,
		BusySeconds: sec,
	}, nil
}

// Broadcast counts a broadcast. The pool pins nothing: broadcast batches
// ship as ordinary blocks, cached per worker until ReleaseBroadcasts.
func (p *Pool) Broadcast(int64) error {
	p.mu.Lock()
	p.stats.Broadcasts++
	p.mu.Unlock()
	return nil
}

// Unpin is a no-op: the pool holds no broadcast memory budget.
func (p *Pool) Unpin(int64) {}

// ReleaseBroadcasts is the end-of-job hook: the job's blocks are dead, so
// the store empties, workers drop their caches, and the driver forgets
// what it pushed to them.
func (p *Pool) ReleaseBroadcasts() {
	p.store.clear()
	for _, w := range p.liveWorkers() {
		w.wmu.Lock()
		clear(w.sent)
		clear(w.tables)
		writeFrame(w.conn, msgClearCache, nil)
		w.wmu.Unlock()
	}
}

// Clock is wall time since the pool started, plus retry-backoff advances.
func (p *Pool) Clock() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.clockLocked()
}

func (p *Pool) clockLocked() float64 {
	return time.Since(p.start).Seconds() + p.clockOffset
}

// Stats returns the pool's accumulated counters.
func (p *Pool) Stats() cluster.Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ---- engine.Residency ----

// RegisterOutput places a completed stage's partitions round-robin over
// the currently live workers, mirroring the simulator's machine
// placement. If every worker is down the output is born lost; the next
// CheckFetch fails and recovery (or the job's error path) takes over.
// Liveness is sampled under the pool lock: markDead marks lost partitions
// under the same lock, so an output can never land on a worker whose
// death sweep already ran (it would be stranded "live" on a corpse).
func (p *Pool) RegisterOutput(parts int) cluster.OutputID {
	p.mu.Lock()
	defer p.mu.Unlock()
	live := p.liveLocked()
	p.nextOut++
	id := p.nextOut
	locs := make([]int, parts)
	for i := range locs {
		locs[i] = -1
		if len(live) > 0 {
			locs[i] = live[(p.rrOut+i)%len(live)].idx
		}
	}
	p.rrOut += parts
	p.outputs[id] = &poolOutput{locs: locs}
	return id
}

// CheckFetch reports a *cluster.FetchFailedError if any partition of the
// output was registered on a worker that has since died. Each output
// counts at most one fetch failure, like the simulator.
func (p *Pool) CheckFetch(id cluster.OutputID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	out, ok := p.outputs[id]
	if !ok {
		return nil
	}
	var lost []int
	machine := 0
	for i, loc := range out.locs {
		if loc < 0 {
			lost = append(lost, i)
			machine = -loc - 1
		}
	}
	if len(lost) == 0 {
		return nil
	}
	if !out.counted {
		out.counted = true
		p.stats.FetchFailures++
	}
	return &cluster.FetchFailedError{Machine: machine, Parts: lost, Total: len(out.locs)}
}

// DropOutput forgets an output (its stage was rewound or recomputed).
func (p *Pool) DropOutput(id cluster.OutputID) {
	p.mu.Lock()
	delete(p.outputs, id)
	p.mu.Unlock()
}

// Advance adds recovery-backoff seconds to the pool clock.
func (p *Pool) Advance(dt float64) {
	p.mu.Lock()
	p.clockOffset += dt
	p.mu.Unlock()
}
