package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"matryoshka/internal/procpool"
	"matryoshka/internal/tasks"
)

// TestMain lets the process pool re-exec the test binary as its workers.
func TestMain(m *testing.M) {
	if procpool.IsWorker() {
		procpool.WorkerMain()
	}
	os.Exit(m.Run())
}

// tinyScale is the smoke tests' records per paper-GB: small enough for quick
// runs, large enough that no strategy runs out of simulated memory (at a
// few hundred, inner-parallel bounce rate does).
const tinyScale = 1000

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declared reads the metric lists of the repository's BENCHMARK.json.
func declared(t *testing.T) (endToEnd, perLayer []declaredMetric) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

// TestSmoke runs every workload at a tiny scale in both modes: each run
// must pass its oracle and report exactly the metrics BENCHMARK.json
// declares for that mode, each with its declared unit.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			t.Run(wl+"/trace="+strconv.FormatBool(traced), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", wl, "--seed", "3", "--seconds", "0.01",
					"--records-per-gb", strconv.Itoa(tinyScale),
					"--trace-out", filepath.Join(t.TempDir(), "run.trace")}
				if traced {
					args = append(args, "--trace", "1")
				}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				if !strings.HasPrefix(lines[0], "host {") {
					t.Errorf("first line %q does not record the host", lines[0])
				}
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json declares %d", len(rep.Metrics), len(want))
				}
				for _, d := range want {
					got, ok := rep.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case got.Unit == "" || got.Unit != d.Unit:
						t.Errorf("metric %s unit %q, declared %q", d.Name, got.Unit, d.Unit)
					}
				}
			})
		}
	}
}

// TestOracleRejectsPerturbedReference checks that the oracle passes every
// program's real output and fails it once the reference moves by a little
// more than the tolerance (k-means) or by one ulp (bounce rates).
func TestOracleRejectsPerturbedReference(t *testing.T) {
	for _, wl := range workloadNames {
		w, err := newWorkload(wl, 3, tinyScale)
		if err != nil {
			t.Fatal(err)
		}
		refs := w.references()
		for _, prog := range programNames {
			r := w.runProgram(prog, nil, nil)
			if r.err != nil {
				t.Fatalf("%s/%s: %v", wl, prog, r.err)
			}
			if err := refs.check(prog, r.value); err != nil {
				t.Fatalf("%s/%s: oracle rejects the real output: %v", wl, prog, err)
			}
			if err := perturb(refs).check(prog, r.value); err == nil {
				t.Errorf("%s/%s: oracle accepts a perturbed reference", wl, prog)
			}
		}
	}
}

// perturb returns a copy of refs with one value moved: the first centroid
// of config 0 by 2e-3 (squared distance 4e-6 > 1e-6), and the lowest day's
// bounce rate by one ulp.
func perturb(refs references) references {
	rates := tasks.BounceRates{}
	for d, r := range refs.rates {
		rates[d] = r
	}
	day := sortedKeys(rates)[0]
	rates[day] = math.Nextafter(rates[day], 2)
	out := references{typed: rates, rates: rates}
	if km, ok := refs.typed.(tasks.KMeansValue); ok {
		moved := tasks.KMeansValue{}
		for id, ms := range km {
			moved[id] = append(ms[:0:0], ms...)
		}
		moved[0][0].X += 2e-3
		out.typed = moved
	}
	return out
}
