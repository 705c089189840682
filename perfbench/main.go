// Command perfbench is the repository's wall-clock benchmark: Matryoshka
// against the inner-parallel workaround (and the paper's Listing 1 through
// the IR front end) on the in-process simulator and on the process pool.
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload fig1-kmeans --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it times bare runs (tasks.Backend and tasks.Obs nil, or
// the bare pool) and reports the end-to-end metrics. With --trace 1 it
// times untraced runs, then the same runs behind a timing wrapper around
// the backend with an obs.Recorder attached and runtime/trace on, checks
// that both agree, and reports the per-layer metrics. Every run's value is
// checked against the task's sequential reference.
//
// End-to-end times are wall seconds less the CPU time the hypervisor stole
// from the machine during the run (the steal column of /proc/stat). On a
// shared VM a stolen vCPU stalls every barrier-synchronized stage of the
// engine: on a 2-vCPU VM, neighbours' load moved inner-parallel's median by
// up to 70%, and removing steal cut the spread of bounce-rate
// inner-parallel's median over ten runs from 0.12 to 0.06. On a dedicated
// host steal is 0 and the times are plain wall seconds. Layer times in the
// traced run are plain wall seconds, with the steal reported beside them.
//
// Standard output ends with one JSON line:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// A host line and, in traced mode, the layer table come before it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/trace"
	"strconv"
	"strings"
	"syscall"
	"time"

	"matryoshka/internal/datagen"
	"matryoshka/internal/engine"
	"matryoshka/internal/procpool"
	"matryoshka/internal/tasks"
)

// poolWorkers is the process pool's size: one worker per CPU of the 2-CPU
// host the benchmark was calibrated on.
const poolWorkers = 2

// setupReps is how many times a timed run sets up (pool start plus the
// warm-up run) before measuring; setup_s is the median.
const setupReps = 3

func main() {
	// A pool worker is this binary re-exec'd; divert before anything else.
	if procpool.IsWorker() {
		procpool.WorkerMain()
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        bool
	recordsPerGB int
	traceOut     string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed (same seed, same inputs)")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long to measure")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics from bare runs; 1: per-layer metrics from a traced run")
	fs.IntVar(&o.recordsPerGB, "records-per-gb", 0, "records per paper-GB (0 = the workload's own scale)")
	fs.StringVar(&o.traceOut, "trace-out", ".bench_build/perfbench.trace", "runtime/trace file written by --trace 1")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case traceFlag != 0 && traceFlag != 1:
		return o, fmt.Errorf("--trace %d: want 0 or 1", traceFlag)
	case o.seconds <= 0:
		return o, fmt.Errorf("--seconds %v: want > 0", o.seconds)
	case o.seed < 0:
		return o, fmt.Errorf("--seed %d: want >= 0", o.seed)
	case o.recordsPerGB < 0:
		return o, fmt.Errorf("--records-per-gb %d: want >= 0", o.recordsPerGB)
	}
	o.trace = traceFlag == 1
	if o.recordsPerGB == 0 {
		o.recordsPerGB = defaultRecordsPerGB(o.workload)
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	rep, err := measure(o, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host is recorded with every result so that later comparisons put like
// beside like.
type host struct {
	CPU          string `json:"cpu"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Go           string `json:"go"`
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	RecordsPerGB int    `json:"records_per_gb"`
	PoolWorkers  int    `json:"pool_workers"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// benchRun is one measurement session of one workload: its inputs, its
// references, and (on proc-kmeans) the live pool.
type benchRun struct {
	w      *workload
	refs   references
	pool   *procpool.Pool
	stderr io.Writer
	rep    report
}

// backend is what the bare runs execute on: nil (a private simulator per
// run) in-process, the pool otherwise.
func (b *benchRun) backend() engine.Backend {
	if b.pool == nil {
		return nil
	}
	return b.pool
}

// verify counts one attempted operation and reports whether it ran and
// matched its reference; failures are logged and counted.
func (b *benchRun) verify(prog string, r result) bool {
	b.rep.Attempted++
	err := r.err
	if err == nil {
		err = b.refs.check(prog, r.value)
	}
	if err != nil {
		b.rep.Failed++
		fmt.Fprintf(b.stderr, "perfbench: %s/%s failed: %v\n", b.w.name, prog, err)
		return false
	}
	return true
}

// setup starts the pool (on the pool workload) and warms up with one
// untimed run of every program, returning its wall seconds.
func (b *benchRun) setup() (float64, error) {
	if b.pool != nil {
		b.pool.Close()
		b.pool = nil
	}
	runtime.GC()
	s0, t0 := stolen(), time.Now()
	if b.w.proc {
		p, err := procpool.Start(procpool.Config{Workers: poolWorkers})
		if err != nil {
			return 0, err
		}
		b.pool = p
	}
	for _, prog := range programNames {
		r := b.w.runProgram(prog, b.backend(), nil)
		if r.err == nil {
			r.err = b.refs.check(prog, r.value)
		}
		if r.err != nil {
			return 0, fmt.Errorf("warm-up %s/%s: %w", b.w.name, prog, r.err)
		}
	}
	return unstolen(time.Since(t0).Seconds(), stolen()-s0), nil
}

// bare runs prog once untraced and returns its wall seconds and the CPU
// seconds stolen during it.
func (b *benchRun) bare(prog string) (r result, wall, steal float64) {
	runtime.GC()
	s0, t0 := stolen(), time.Now()
	r = b.w.runProgram(prog, b.backend(), nil)
	return r, time.Since(t0).Seconds(), stolen() - s0
}

// userHZ is the unit of /proc/stat's CPU times, fixed at 100 on Linux.
const userHZ = 100

// stolen returns the CPU seconds the hypervisor has stolen from this
// machine's CPUs since boot, or 0 where /proc/stat does not say.
func stolen() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / userHZ
}

// unstolen is a run's wall time less the CPU time stolen during it, never
// below half the wall (steal on every CPU at once would otherwise count
// twice).
func unstolen(wall, steal float64) float64 {
	return max(wall-steal, wall/2)
}

func measure(o options, stdout, stderr io.Writer) (report, error) {
	w, err := newWorkload(o.workload, o.seed, o.recordsPerGB)
	if err != nil {
		return report{}, err
	}
	h := host{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Workload: w.name, Seed: o.seed, RecordsPerGB: w.recordsPerGB, PoolWorkers: poolWorkers}
	hj, _ := json.Marshal(h) // a struct of strings and ints always marshals
	fmt.Fprintf(stdout, "host %s\n", hj)

	b := &benchRun{w: w, refs: w.references(), stderr: stderr, rep: report{Metrics: map[string]metric{}}}
	defer func() {
		if b.pool != nil {
			b.pool.Close()
		}
	}()
	if o.trace {
		err = b.measureTraced(o, stdout)
	} else {
		err = b.measureTimed(o)
	}
	if err != nil {
		return report{}, err
	}
	b.rep.Correct = b.rep.Failed == 0
	return b.rep, nil
}

// minRoundSeconds is how long each program runs per round at least: a
// short program repeats within the round, so its median rests on about as
// many runs as a long one's instead of on one run per round.
const minRoundSeconds = 0.25

// measureTimed reports the end-to-end metrics: medians of bare runs,
// taken in rounds over the programs until the time is up.
func (b *benchRun) measureTimed(o options) error {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		s, err := b.setup()
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}
	walls := map[string][]float64{}
	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < o.seconds; round++ {
		for _, prog := range programNames {
			for spent := 0.0; spent < minRoundSeconds; {
				r, wall, steal := b.bare(prog)
				spent += wall
				if b.verify(prog, r) {
					walls[prog] = append(walls[prog], unstolen(wall, steal))
				}
			}
		}
	}
	for _, prog := range programNames {
		fmt.Fprintf(b.stderr, "perfbench: %s/%s seconds per run: %.3f\n", b.w.name, prog, walls[prog])
		if len(walls[prog]) > 0 {
			b.rep.Metrics[endToEndName[prog]] = metric{median(walls[prog]), "s"}
		}
	}
	b.rep.Metrics["setup_s"] = metric{median(setups), "s"}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return fmt.Errorf("getrusage: %w", err)
	}
	b.rep.Metrics["peak_rss_mb"] = metric{float64(ru.Maxrss) * 1024 / mb, "MB"}
	return nil
}

var endToEndName = map[string]string{progMatryoshka: "matryoshka_s", progInner: "inner_s", progIR: "ir_s"}

// measureTraced reports the per-layer metrics. Untraced rounds come
// first, then as many traced rounds with runtime/trace on, so the trace
// file holds one task per traced program run and nothing untraced. Every
// traced run must reproduce the untraced run's value and counts (and, on
// the simulator, its simulated seconds). Layer times add up to plain wall
// seconds; host.steal_s says how much of that the hypervisor stole.
func (b *benchRun) measureTraced(o options, stdout io.Writer) error {
	if _, err := b.setup(); err != nil {
		return err
	}
	gen := b.datagenSeconds()
	untraced := map[string]result{} // first good untraced run per program
	untracedWall := map[string][]float64{}
	start := time.Now()
	rounds := 0
	for ; rounds == 0 || time.Since(start).Seconds() < o.seconds/2; rounds++ {
		for _, prog := range programNames {
			r, wall, _ := b.bare(prog)
			if b.verify(prog, r) {
				if _, ok := untraced[prog]; !ok {
					untraced[prog] = r
				}
				untracedWall[prog] = append(untracedWall[prog], wall)
			}
		}
	}

	f, err := os.Create(o.traceOut)
	if err != nil {
		return err
	}
	if err := trace.Start(f); err != nil {
		f.Close()
		return err
	}
	layers := map[string][]map[string]float64{}
	var parse, lower []float64
	tracedWall := map[string][]float64{}
	for i := 0; i < rounds; i++ {
		for _, prog := range programNames {
			tr, err := traced(b.w, prog, b.pool, gen[prog])
			if err != nil {
				trace.Stop()
				f.Close()
				return err
			}
			if !b.verify(prog, tr.res) {
				continue
			}
			if u, ok := untraced[prog]; ok {
				if err := sameRun(u, tr.res, !b.w.proc); err != nil {
					b.rep.Failed++
					fmt.Fprintf(b.stderr, "perfbench: %s/%s: traced run differs from untraced: %v\n", b.w.name, prog, err)
					continue
				}
			}
			tracedWall[prog] = append(tracedWall[prog], tr.wall)
			layers[prog] = append(layers[prog], tr.layerMetrics())
			if prog == progIR {
				parse, lower = append(parse, tr.res.parseS), append(lower, tr.res.lowerS)
			}
		}
	}
	trace.Stop()
	if err := f.Close(); err != nil {
		return err
	}

	m := map[string]float64{}
	var sumTraced, sumUntraced float64
	for _, prog := range programNames {
		for name, v := range medianMetrics(layers[prog]) {
			m[name+"."+prog] = v
		}
		m["datagen.s."+prog] = gen[prog]
		sumTraced += median(tracedWall[prog])
		sumUntraced += median(untracedWall[prog])
	}
	m["ir.parse_s"], m["ir.lower_s"] = median(parse), median(lower)
	m["trace.overhead_frac"] = 0
	if sumUntraced > 0 {
		m["trace.overhead_frac"] = sumTraced/sumUntraced - 1
	}
	// Closing the pool reaps its workers, so the children's peak RSS
	// (the largest worker's) is final.
	m["procpool.worker_rss_mb"] = 0
	if b.pool != nil {
		b.pool.Close()
		b.pool = nil
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
			return fmt.Errorf("getrusage: %w", err)
		}
		m["procpool.worker_rss_mb"] = float64(ru.Maxrss) * 1024 / mb
	}
	for name, v := range m {
		b.rep.Metrics[name] = metric{v, layerUnit(name)}
	}
	printLayerTable(stdout, b.w.name, m)
	fmt.Fprintf(stdout, "runtime/trace written to %s (go tool trace %s)\n", o.traceOut, o.traceOut)
	return nil
}

// sameRun is the traced-run fidelity check.
func sameRun(untraced, traced result, simulated bool) error {
	switch {
	case !reflect.DeepEqual(untraced.value, traced.value):
		return errors.New("values differ")
	case untraced.stats != traced.stats:
		return fmt.Errorf("counts differ: untraced %+v, traced %+v", untraced.stats, traced.stats)
	case simulated && untraced.sim != traced.sim:
		return fmt.Errorf("simulated seconds differ: untraced %v, traced %v", untraced.sim, traced.sim)
	}
	return nil
}

// medianMetrics takes each metric's median over the traced rounds.
func medianMetrics(runs []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	if len(runs) == 0 {
		return out
	}
	for name := range runs[0] {
		vs := make([]float64, len(runs))
		for i, r := range runs {
			vs[i] = r[name]
		}
		out[name] = median(vs)
	}
	return out
}

// datagenSeconds times, outside any run, the generator calls each
// program makes with the same arguments (median of three): the floor
// under the program's wall time.
func (b *benchRun) datagenSeconds() map[string]float64 {
	typed := func() {}
	switch t := b.w.typed.(type) {
	case tasks.KMeansSpec:
		typed = func() {
			n := max(t.TotalPoints/t.Configs, t.K)
			datagen.GaussianPoints(n, 4, t.Seed)
			datagen.RandomCentroidSets(t.Configs, t.K, t.Seed+1)
		}
	case tasks.BounceRateSpec:
		typed = func() {
			visits := datagen.VisitsSkew(t.Visits, t.Days, datagen.DefaultZipfS, t.Seed)
			pairs := make([]engine.Pair[int64, int64], len(visits))
			for i, v := range visits {
				pairs[i] = engine.KV(v.Day, v.IP)
			}
		}
	}
	vs := b.w.visits()
	boxed := func() { boxedVisits(vs) }
	timeIt := func(f func()) float64 {
		var xs []float64
		for i := 0; i < 3; i++ {
			runtime.GC()
			t0 := time.Now()
			f()
			xs = append(xs, time.Since(t0).Seconds())
		}
		return median(xs)
	}
	t := timeIt(typed)
	return map[string]float64{progMatryoshka: t, progInner: t, progIR: timeIt(boxed)}
}
