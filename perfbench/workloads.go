package main

import (
	"fmt"
	"time"

	"matryoshka/internal/bench"
	"matryoshka/internal/cluster"
	"matryoshka/internal/core"
	"matryoshka/internal/datagen"
	"matryoshka/internal/engine"
	"matryoshka/internal/ir"
	"matryoshka/internal/obs"
	"matryoshka/internal/tasks"
)

// A workload is one set of inputs run through three programs: the typed
// Matryoshka program, the inner-parallel workaround, and the paper's
// Listing 1 (bounce rate) through the IR front end (ir.Parse + ir.Lower
// over boxed records). The IR program runs on every workload so every
// workload reports every metric; on the k-means workloads it runs over a
// bounce-rate input of the workload's scale, on the workload's backend.
//
// Outer-parallel is left out everywhere: on fig1 k-means its real time is
// a few ms (its cost is purely simulated), and on bounce rate it runs out of
// simulated memory by design (Fig. 5).
//
// Why each workload, with the layer shares of the traced run measured on a
// 2-vCPU Intel Xeon VM with Go 1.24.0 (GOMAXPROCS=2, 2 pool workers, seed
// 3); shares are of the traced wall. Rerun with --trace 1 before citing
// them.
//
// fig1-kmeans: the Fig. 1 k-means hyperparameter search (64 configs, K=4,
// 3 Lloyd iterations each, 1,000 records per paper-GB) in-process on the
// simulated paper cluster. Per-job cost dominates inner-parallel: it runs
// 192 jobs, 385 stages and 290,616 tiny tasks, where Matryoshka runs the
// same search in 6 jobs. A per-job gain moves inner_s and leaves
// matryoshka_s. Inner-parallel: engine.driver_s (plan build, fusion
// compile, collect) 60%, engine.task_s 33%, cluster.call_s (simulator
// accounting) 8%. Matryoshka: engine.task_s 68%, engine.driver_s 31%.
//
// bounce-rate: bounce rate (Listing 1, Fig. 5) over 48 paper-GB of
// Zipf-skewed visits across 64 days at 5,000 records per paper-GB.
// Matryoshka is 2 jobs and every visit crosses a group-by shuffle into a
// nested bag, so the data path is most of its wall: engine.task_s 60%,
// engine.driver_s 34%, datagen 5%. Inner-parallel is 129 jobs that each
// scan and filter the whole input through fused chains (engine.driver_s
// 53%, engine.task_s 43%, cluster.call_s 4%); these reads sit beside
// Matryoshka's shuffle writes. The IR run is the same program over boxed
// batches (engine.task_s 67%, engine.driver_s 27%): a typed-path gain that
// costs the boxed path shows in ir_s.
//
// proc-kmeans: the same k-means program with 4 configs and 4 iterations
// on a 2-worker process pool. It is the only workload where batchio, the
// wire, the block store and driver wait do most of the work: inner-parallel
// spends 94% of its wall inside RunRemoteStage (procpool.run_stage_s,
// 32 stages, 38,400 tasks, ~87 µs per task), 1% in ~19,000 PutBlock calls
// and 5% in the driver. Matryoshka's 41 stages all fall back to
// driver-local today (procpool.driver_local_stages), so its number moves
// once the paper's lifted operators get portable forms.
type workload struct {
	name         string
	seed         int64
	recordsPerGB int
	proc         bool // run on a 2-worker process pool instead of the in-process simulator
	typed        typedTask
}

// typedTask is the workload's task under the typed strategies.
type typedTask interface {
	Run(tasks.Strategy, cluster.Config) tasks.Outcome
}

// Program names, used as metric suffixes and in the layer table.
const (
	progMatryoshka = "matryoshka"
	progInner      = "inner"
	progIR         = "ir"
)

var programNames = []string{progMatryoshka, progInner, progIR}

var workloadNames = []string{"fig1-kmeans", "bounce-rate", "proc-kmeans"}

// kmeansSpec is the Fig. 1 k-means shape: 20 paper-GB of points split over
// the configs, K=4. Every config runs exactly iters Lloyd iterations (Eps 0
// never stops a loop early): with early convergence the job count would
// depend on the seed (23 to 37 inner-parallel stages over seeds 1-4 with 4
// configs), and that spread would swamp the run-to-run spread of the wall
// times.
func kmeansSpec(sc bench.Scale, configs, iters int, seed int64) tasks.KMeansSpec {
	return tasks.KMeansSpec{TotalPoints: sc.Records(20), K: 4, Configs: configs, Eps: 0, MaxIters: iters, Seed: seed}
}

// bounceSpec is 48 paper-GB of Zipf-skewed visits over 64 days.
func bounceSpec(sc bench.Scale, seed int64) tasks.BounceRateSpec {
	return tasks.BounceRateSpec{Visits: sc.Records(48), Days: 64, Skewed: true, Seed: seed}
}

// newWorkload builds the named workload with inputs drawn from seed.
func newWorkload(name string, seed int64, recordsPerGB int) (*workload, error) {
	w := &workload{name: name, seed: seed, recordsPerGB: recordsPerGB}
	switch name {
	case "fig1-kmeans":
		w.typed = kmeansSpec(w.scale(), 64, 3, seed)
	case "bounce-rate":
		w.typed = bounceSpec(w.scale(), seed)
	case "proc-kmeans":
		w.proc = true
		w.typed = kmeansSpec(w.scale(), 4, 4, seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// defaultRecordsPerGB is each workload's scale: bounce rate keeps 200
// records per partition (240,000 visits over the paper cluster's 1,200
// default partitions), k-means keeps inner-parallel's per-job cost (not
// its data) in front.
func defaultRecordsPerGB(name string) int {
	if name == "bounce-rate" {
		return 5_000
	}
	return 1_000
}

func (w *workload) scale() bench.Scale { return bench.Scale{RecordsPerGB: w.recordsPerGB} }

func (w *workload) cluster() cluster.Config { return w.scale().PaperCluster() }

// visits is the IR program's input spec: the workload's own input on
// bounce-rate, the same shape at the workload's scale elsewhere.
func (w *workload) visits() tasks.BounceRateSpec {
	if b, ok := w.typed.(tasks.BounceRateSpec); ok {
		return b
	}
	return bounceSpec(w.scale(), w.seed)
}

// result is what one program run produced, as seen from outside.
type result struct {
	value any
	err   error
	sim   float64 // backend clock delta: simulated seconds, or pool wall seconds
	stats cluster.Stats

	parseS, lowerS float64 // IR runs: wall seconds in ir.Parse and ir.Lower
}

// runProgram runs one program with backend b (nil = a private simulator
// per run, as tasks does by default) and recorder rec (nil = no tracing).
func (w *workload) runProgram(prog string, b engine.Backend, rec *obs.Recorder) result {
	var clock0 float64
	var stats0 cluster.Stats
	if b != nil {
		clock0, stats0 = b.Clock(), b.Stats()
	}
	var r result
	switch prog {
	case progMatryoshka, progInner:
		strat := tasks.Matryoshka
		if prog == progInner {
			strat = tasks.InnerParallel
		}
		tasks.Backend, tasks.Obs = b, rec
		o := w.typed.Run(strat, w.cluster())
		tasks.Backend, tasks.Obs = nil, nil
		r = result{value: o.Value, err: o.Err, sim: o.Seconds, stats: cluster.Stats{Jobs: o.Jobs, Stages: o.Stages, Tasks: o.Tasks}}
	case progIR:
		r = w.runIR(b, rec)
	default:
		r.err = fmt.Errorf("unknown program %q", prog)
	}
	if b != nil {
		st := b.Stats()
		r.sim = b.Clock() - clock0
		r.stats = cluster.Stats{Jobs: st.Jobs - stats0.Jobs, Stages: st.Stages - stats0.Stages, Tasks: st.Tasks - stats0.Tasks}
	}
	return r
}

// listing1 is the paper's Listing 1 as an IR program: per day, the share
// of visitors seen exactly once.
func listing1() *ir.Program {
	udf := &ir.Fn{
		Params: []string{"day", "group"},
		Body: []ir.Stmt{
			ir.LetS{Name: "countsPerIP", E: ir.ReduceByKey{
				In: ir.Map{In: ir.Ref{Name: "group"},
					F: func(ip any) any { return engine.KV[any, any](ip, int64(1)) }},
				F: func(a, b any) any { return a.(int64) + b.(int64) },
			}},
			ir.LetS{Name: "numBounces", E: ir.Count{In: ir.Filter{
				In:   ir.Ref{Name: "countsPerIP"},
				Pred: func(e any) bool { return e.(engine.Pair[any, any]).Val.(int64) == 1 },
			}}},
			ir.LetS{Name: "numTotalVisitors", E: ir.Count{In: ir.Distinct{In: ir.Ref{Name: "group"}}}},
			ir.LetS{Name: "bounceRate", E: ir.BinOp{
				A: ir.Ref{Name: "numBounces"}, B: ir.Ref{Name: "numTotalVisitors"},
				F: func(a, b any) any { return float64(a.(int64)) / float64(b.(int64)) },
			}},
			ir.Return{E: ir.BinOp{A: ir.Ref{Name: "day"}, B: ir.Ref{Name: "bounceRate"},
				F: func(d, r any) any { return engine.KV[any, any](d, r) }}},
		},
	}
	return &ir.Program{
		Lets: []ir.Let{
			{Name: "visits", E: ir.Source{Name: "visits"}},
			{Name: "visitsPerDay", E: ir.GroupByKey{In: ir.Ref{Name: "visits"}}},
			{Name: "bounceRates", E: ir.Map{In: ir.Ref{Name: "visitsPerDay"}, UDF: udf}},
		},
		Result: "bounceRates",
	}
}

// boxedVisits generates the IR program's input: the same generator call
// tasks.BounceRateSpec makes, boxed as engine.Pair[any, any]{day, ip}.
func boxedVisits(sp tasks.BounceRateSpec) []any {
	visits := datagen.VisitsSkew(sp.Visits, sp.Days, datagen.DefaultZipfS, sp.Seed)
	out := make([]any, len(visits))
	for i, v := range visits {
		out[i] = engine.KV[any, any](v.Day, v.IP)
	}
	return out
}

// runIR runs Listing 1 through the parsing and lowering phases on a
// Matryoshka session (adaptive recovery on, as tasks' Matryoshka runs).
func (w *workload) runIR(b engine.Backend, rec *obs.Recorder) result {
	data := boxedVisits(w.visits())
	t0 := time.Now()
	parsed, err := ir.Parse(listing1())
	if err != nil {
		return result{err: err}
	}
	t1 := time.Now()
	sess, err := engine.NewSession(engine.Config{Cluster: w.cluster(), Obs: rec, Backend: b, Recover: true})
	if err != nil {
		return result{err: err}
	}
	defer sess.Close()
	out, err := ir.Lower(parsed, sess, map[string][]any{"visits": data}, core.Options{})
	st := sess.Stats()
	r := result{err: err, sim: sess.Clock(), stats: cluster.Stats{Jobs: st.Jobs, Stages: st.Stages, Tasks: st.Tasks},
		parseS: t1.Sub(t0).Seconds(), lowerS: time.Since(t1).Seconds()}
	if err == nil {
		r.value, r.err = irRates(out)
	}
	return r
}

// irRates converts the IR program's output to day -> rate.
func irRates(out any) (tasks.BounceRates, error) {
	rows, ok := out.([]any)
	if !ok {
		return nil, fmt.Errorf("ir result is %T, want []any", out)
	}
	rates := make(tasks.BounceRates, len(rows))
	for _, r := range rows {
		kv, ok := r.(engine.Pair[any, any])
		if !ok {
			return nil, fmt.Errorf("ir row is %T, want engine.Pair[any, any]", r)
		}
		day, ok1 := kv.Key.(int64)
		rate, ok2 := kv.Val.(float64)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("ir row %v is not (int64 day, float64 rate)", kv)
		}
		rates[day] = rate
	}
	return rates, nil
}
