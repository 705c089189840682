package engine

import (
	"sync"
	"sync/atomic"
)

// workerPool is a persistent set of goroutines executing parallel loops.
// One pool is created per Session and reused for every stage of every
// job, replacing the goroutine-per-partition + fresh-semaphore launch that
// paid spawn and scheduling cost on every stage.
//
// Workers reference only the pool, never the Session, so an abandoned
// Session stays collectable: a runtime cleanup registered in NewSession
// closes the task channel and the workers exit.
type workerPool struct {
	tasks     chan *forLoop
	closeOnce sync.Once
}

// forLoop is the shared state of one parallelFor call. Runners are the
// loop itself sent width times over the task channel, and loops are
// recycled through loopPool, so a call allocates nothing in steady state:
// no per-runner closure, no escaping counter or wait group.
type forLoop struct {
	next atomic.Int64
	n    int
	body func(i int)
	wg   sync.WaitGroup

	// safe loops recover body panics: the first is kept for the caller
	// to re-raise and the remaining indices still run.
	safe     bool
	mu       sync.Mutex
	panicked any
}

var loopPool = sync.Pool{New: func() any { return new(forLoop) }}

func newWorkerPool(workers int) *workerPool {
	if workers < 1 {
		workers = 1
	}
	p := &workerPool{tasks: make(chan *forLoop)}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *workerPool) worker() {
	for l := range p.tasks {
		l.run()
	}
}

// run claims indices from the shared counter until the range is spent.
func (l *forLoop) run() {
	defer l.wg.Done()
	for {
		i := int(l.next.Add(1) - 1)
		if i >= l.n {
			return
		}
		l.call(i)
	}
}

func (l *forLoop) call(i int) {
	if l.safe {
		defer l.recoverBody()
	}
	l.body(i)
}

func (l *forLoop) recoverBody() {
	if r := recover(); r != nil {
		l.mu.Lock()
		if l.panicked == nil {
			l.panicked = r
		}
		l.mu.Unlock()
	}
}

// close stops the workers after in-flight loops drain. The pool must not
// be used afterwards. Idempotent.
func (p *workerPool) close() { p.closeOnce.Do(func() { close(p.tasks) }) }

// parallelFor runs body(i) for every i in [0, n) and returns when all are
// done, fanning out to at most width concurrent runners. Runners claim
// indices from a shared atomic counter, so submission cost is O(width),
// not O(n) — a stage with 1200 partitions hands the pool a handful of
// loop runners instead of 1200 channel sends. With width <= 1 the loop
// runs inline on the caller, bypassing the pool entirely. Bodies must not
// panic (a panic kills the worker and the process) and must not call
// parallelFor on the same pool themselves (deadlock).
func (p *workerPool) parallelFor(width, n int, body func(i int)) {
	p.loop(width, n, body, false)
}

// parallelForSafe is parallelFor with panic capture: a panicking body
// records the first panic, the remaining indices still run, and the panic
// is re-raised on the caller's goroutine — matching what inline serial
// execution would do without killing pool workers.
func (p *workerPool) parallelForSafe(width, n int, body func(i int)) {
	p.loop(width, n, body, true)
}

func (p *workerPool) loop(width, n int, body func(i int), safe bool) {
	if n <= 0 {
		return
	}
	if width > n {
		width = n
	}
	if width <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	l := loopPool.Get().(*forLoop)
	l.n, l.body, l.safe = n, body, safe
	l.wg.Add(width)
	for w := 0; w < width; w++ {
		p.tasks <- l
	}
	l.wg.Wait()
	panicked := l.panicked
	l.next.Store(0)
	l.body, l.panicked = nil, nil
	loopPool.Put(l)
	if panicked != nil {
		panic(panicked)
	}
}
