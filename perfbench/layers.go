package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/trace"
	"sort"
	"strings"
	"sync"
	"time"

	"matryoshka/internal/cluster"
	"matryoshka/internal/core"
	"matryoshka/internal/engine"
	"matryoshka/internal/obs"
	"matryoshka/internal/procpool"
)

// layerClock accumulates the wall time of calls from the engine into the
// backend layers, as timed from outside by timedBackend/timedRemote.
type layerClock struct {
	ctx context.Context // carries the runtime/trace task of the run

	mu         sync.Mutex
	callS      float64 // engine.Backend calls (simulator or pool accounting)
	putBlockS  float64
	runStageS  float64
	broadcastB int64
	jobStart   time.Time
	jobWalls   []float64 // StartJob -> ReleaseBroadcasts, seconds
}

// span opens a runtime/trace region named after the call and returns the
// function that closes it and adds its duration to *acc.
func (l *layerClock) span(name string, acc *float64) func() {
	reg := trace.StartRegion(l.ctx, name)
	t0 := time.Now()
	return func() {
		d := time.Since(t0).Seconds()
		reg.End()
		l.mu.Lock()
		*acc += d
		l.mu.Unlock()
	}
}

// timedBackend wraps a backend's engine.Backend facet with per-call
// timing; its residency facet passes through untouched, so the engine sees
// the same backend it would without the wrapper.
type timedBackend struct {
	engine.Backend
	engine.Residency
	l *layerClock
}

func (t *timedBackend) StartJob() {
	defer t.l.span("StartJob", &t.l.callS)()
	t.Backend.StartJob()
	t.l.mu.Lock()
	t.l.jobStart = time.Now()
	t.l.mu.Unlock()
}

func (t *timedBackend) RunStageReport(tasks []cluster.Task) (cluster.StageReport, error) {
	defer t.l.span("RunStageReport", &t.l.callS)()
	return t.Backend.RunStageReport(tasks)
}

func (t *timedBackend) Broadcast(bytes int64) error {
	defer t.l.span("Broadcast", &t.l.callS)()
	t.l.mu.Lock()
	t.l.broadcastB += bytes
	t.l.mu.Unlock()
	return t.Backend.Broadcast(bytes)
}

// ReleaseBroadcasts is the engine's end-of-job hook, so it also closes the
// job's wall-time sample.
func (t *timedBackend) ReleaseBroadcasts() {
	done := t.l.span("ReleaseBroadcasts", &t.l.callS)
	t.Backend.ReleaseBroadcasts()
	done()
	t.l.mu.Lock()
	t.l.jobWalls = append(t.l.jobWalls, time.Since(t.l.jobStart).Seconds())
	t.l.mu.Unlock()
}

// timedRemote adds the process pool's RemoteRunner facet, timed.
type timedRemote struct {
	*timedBackend
	remote engine.RemoteRunner
}

func (t *timedRemote) PutBlock(b engine.Batch) (uint64, error) {
	defer t.l.span("PutBlock", &t.l.putBlockS)()
	return t.remote.PutBlock(b)
}

func (t *timedRemote) RunRemoteStage(ctx context.Context, spec *engine.RemoteStageSpec) (*engine.RemoteStageResult, error) {
	defer t.l.span("RunRemoteStage", &t.l.runStageS)()
	return t.remote.RunRemoteStage(ctx, spec)
}

// wrap returns the timing wrapper for one traced run: around a fresh
// simulator for the in-process workloads, around the pool otherwise.
func wrap(w *workload, pool *procpool.Pool, l *layerClock) (engine.Backend, error) {
	if pool != nil {
		return &timedRemote{timedBackend: &timedBackend{Backend: pool, Residency: pool, l: l}, remote: pool}, nil
	}
	sim, err := cluster.New(w.cluster())
	if err != nil {
		return nil, err
	}
	return &timedBackend{Backend: sim, Residency: sim, l: l}, nil
}

// poolCounters is a snapshot of the pool's lifetime counters.
type poolCounters struct {
	stages, tasks, respawns, quarantines int
	shipped, spillBytes                  int64
}

func readPool(p *procpool.Pool) poolCounters {
	if p == nil {
		return poolCounters{}
	}
	_, spill := p.Spills()
	return poolCounters{stages: p.RemoteStages(), tasks: p.RemoteTasks(), respawns: p.Respawns(),
		quarantines: p.Quarantines(), shipped: p.BytesShipped(), spillBytes: spill}
}

// tracedRun is everything one traced run of one program recorded.
type tracedRun struct {
	wall, steal    float64 // wall seconds, and CPU seconds stolen during them
	res            result
	l              *layerClock
	rec            *obs.Recorder
	mem0, mem1     runtime.MemStats
	pool0, pool1   poolCounters
	pooled         bool
	datagenSeconds float64
}

// traced runs prog once behind the timing wrapper with a fresh recorder,
// inside a runtime/trace task named after the workload and program.
func traced(w *workload, prog string, pool *procpool.Pool, datagenSeconds float64) (tracedRun, error) {
	ctx, task := trace.NewTask(context.Background(), w.name+"/"+prog)
	defer task.End()
	l := &layerClock{ctx: ctx}
	b, err := wrap(w, pool, l)
	if err != nil {
		return tracedRun{}, err
	}
	tr := tracedRun{l: l, rec: obs.NewRecorder(), pooled: pool != nil, datagenSeconds: datagenSeconds}
	runtime.GC()
	runtime.ReadMemStats(&tr.mem0)
	tr.pool0 = readPool(pool)
	s0, t0 := stolen(), time.Now()
	tr.res = w.runProgram(prog, b, tr.rec)
	tr.wall, tr.steal = time.Since(t0).Seconds(), stolen()-s0
	tr.pool1 = readPool(pool)
	runtime.ReadMemStats(&tr.mem1)
	return tr, nil
}

const mb = 1e6

// layerMetrics derives the per-layer numbers of one traced run. Names get
// the program as a suffix (engine.driver_s.inner) except the ir.* ones,
// which only the IR program has.
func (tr tracedRun) layerMetrics() map[string]float64 {
	m := map[string]float64{}
	var taskS, boundary float64
	var localStages, fused, memo, recoveries int
	for _, j := range tr.rec.Jobs() {
		recoveries += len(j.Recoveries)
		for _, s := range j.Stages {
			boundary += float64(s.BoundaryBytes)
			memo += int(s.MemoHits)
			if s.Remote {
				continue
			}
			localStages++
			taskS += s.WallSeconds
			if s.Fused != "" {
				fused++
			}
		}
	}
	l := tr.l
	m["engine.jobs"] = float64(tr.res.stats.Jobs)
	m["engine.stages"] = float64(tr.res.stats.Stages)
	m["engine.tasks"] = float64(tr.res.stats.Tasks)
	p50, tail := jobPercentiles(l.jobWalls)
	m["engine.job_p50_ms"] = p50 * 1e3
	m["engine.job_tail_ms"] = tail * 1e3
	m["engine.task_s"] = taskS
	m["engine.driver_s"] = tr.wall - taskS - l.callS - l.putBlockS - l.runStageS - tr.datagenSeconds
	m["engine.fused_share"] = 0
	if localStages > 0 {
		m["engine.fused_share"] = float64(fused) / float64(localStages)
	}
	m["engine.boundary_mb"] = boundary / mb
	m["engine.memo_hits"] = float64(memo)
	m["engine.recoveries"] = float64(recoveries)

	m["go.alloc_mb"] = float64(tr.mem1.TotalAlloc-tr.mem0.TotalAlloc) / mb
	m["go.gc_cycles"] = float64(tr.mem1.NumGC - tr.mem0.NumGC)
	m["go.gc_pause_ms"] = float64(tr.mem1.PauseTotalNs-tr.mem0.PauseTotalNs) / 1e6

	m["host.steal_s"] = tr.steal

	m["cluster.call_s"] = l.callS
	m["cluster.broadcast_mb"] = float64(l.broadcastB) / mb
	m["cluster.sim_s"] = tr.res.sim

	var decisions, shredded int
	for _, d := range tr.rec.Decisions() {
		decisions++
		if d.Rule == "shred" && d.Choice == core.ShredShredded.String() {
			shredded++
		}
	}
	m["core.decisions"] = float64(decisions)
	m["core.shred_shredded"] = float64(shredded)

	p0, p1 := tr.pool0, tr.pool1
	m["procpool.remote_stages"] = float64(p1.stages - p0.stages)
	m["procpool.remote_tasks"] = float64(p1.tasks - p0.tasks)
	m["procpool.put_block_s"] = l.putBlockS
	m["procpool.run_stage_s"] = l.runStageS
	m["procpool.us_per_task"] = 0
	if n := p1.tasks - p0.tasks; n > 0 {
		m["procpool.us_per_task"] = l.runStageS / float64(n) * 1e6
	}
	m["procpool.shipped_mb"] = float64(p1.shipped-p0.shipped) / mb
	m["procpool.driver_local_stages"] = 0
	if tr.pooled {
		m["procpool.driver_local_stages"] = float64(localStages)
	}
	m["procpool.spill_mb"] = float64(p1.spillBytes-p0.spillBytes) / mb
	m["procpool.respawns"] = float64(p1.respawns - p0.respawns)
	m["procpool.quarantines"] = float64(p1.quarantines - p0.quarantines)
	return m
}

// jobPercentiles returns the median job wall and the tail: the highest
// percentile with at least ten jobs beyond it, or the slowest job when a
// run has too few jobs for one.
func jobPercentiles(walls []float64) (p50, tail float64) {
	if len(walls) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), walls...)
	sort.Float64s(s)
	tail = s[len(s)-1]
	if len(s) > 10 {
		tail = s[len(s)-11]
	}
	return median(s), tail
}

// median of xs (which it sorts in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// layerCatalogue lists the per-program layer metrics in table order, with
// their units. Each is reported once per program, suffixed .matryoshka,
// .inner or .ir.
var layerCatalogue = []struct{ name, unit string }{
	{"engine.jobs", "count"},
	{"engine.stages", "count"},
	{"engine.tasks", "count"},
	{"engine.job_p50_ms", "ms"},
	{"engine.job_tail_ms", "ms"},
	{"engine.driver_s", "s"},
	{"engine.task_s", "s"},
	{"engine.fused_share", "ratio"},
	{"engine.boundary_mb", "MB"},
	{"engine.memo_hits", "count"},
	{"engine.recoveries", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"host.steal_s", "s"},
	{"cluster.call_s", "s"},
	{"cluster.broadcast_mb", "MB"},
	{"cluster.sim_s", "s"},
	{"core.decisions", "count"},
	{"core.shred_shredded", "count"},
	{"datagen.s", "s"},
	{"procpool.remote_stages", "count"},
	{"procpool.remote_tasks", "count"},
	{"procpool.put_block_s", "s"},
	{"procpool.run_stage_s", "s"},
	{"procpool.us_per_task", "us"},
	{"procpool.shipped_mb", "MB"},
	{"procpool.driver_local_stages", "count"},
	{"procpool.spill_mb", "MB"},
	{"procpool.respawns", "count"},
	{"procpool.quarantines", "count"},
}

// workloadLayerMetrics are the layer metrics reported once per workload.
var workloadLayerMetrics = []struct{ name, unit string }{
	{"ir.parse_s", "s"},
	{"ir.lower_s", "s"},
	{"procpool.worker_rss_mb", "MB"},
	{"trace.overhead_frac", "ratio"},
}

func layerUnit(name string) string {
	for _, c := range workloadLayerMetrics {
		if c.name == name {
			return c.unit
		}
	}
	for _, c := range layerCatalogue {
		if strings.HasPrefix(name, c.name+".") {
			return c.unit
		}
	}
	return ""
}

// printLayerTable renders the per-layer metrics: one row per metric, one
// column per program, then the workload-wide rows.
func printLayerTable(out io.Writer, workload string, m map[string]float64) {
	fmt.Fprintf(out, "layer table: %s (medians over traced runs)\n", workload)
	fmt.Fprintf(out, "%-30s %-6s", "metric", "unit")
	for _, p := range programNames {
		fmt.Fprintf(out, " %14s", p)
	}
	fmt.Fprintln(out)
	for _, c := range layerCatalogue {
		fmt.Fprintf(out, "%-30s %-6s", c.name, c.unit)
		for _, p := range programNames {
			fmt.Fprintf(out, " %14.6g", m[c.name+"."+p])
		}
		fmt.Fprintln(out)
	}
	for _, c := range workloadLayerMetrics {
		fmt.Fprintf(out, "%-30s %-6s %14.6g\n", c.name, c.unit, m[c.name])
	}
}
