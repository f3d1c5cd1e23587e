// Command perfbench is the repository's real-host benchmark. It runs one
// named workload of the Consequence runtime on the real (goroutine) host
// in a closed loop for a fixed time, checks every run's result against a
// simulation-host reference, and prints its metrics by name with their
// units. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Without -trace the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 it alternates untraced and traced runs and
// prints the per-layer metrics: spans it records around each call into a
// layer, the counters of an observer attached to the runtime, the
// analyzer's phase totals and critical path, the ratio of measured to
// modeled time per phase, and a pthreads reference.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload sync-heavy --seed 42 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload durable-serve --trace 1
//
// Every output carries a provenance manifest line. Two saved outputs are
// compared metric by metric with
//
//	bash perfbench/run.sh compare old.txt new.txt
//
// which refuses when the manifests say the numbers are not comparable
// (another Go version, CPU count, GOMAXPROCS, host, workload, parameters
// or runtime configuration).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// warmup iterations run before any timed one; their results are checked
// but not timed.
const warmup = 3

// pthreadsRunCount is how many pthreads reference runs the traced run
// makes.
const pthreadsRunCount = 60

func main() {
	if len(os.Args) == 4 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2], os.Args[3], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the benchmark and returns the exit code: 0 when every
// result was correct, 1 when some run failed its check (the result line
// is still printed), 2 when the benchmark could not run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "sync-heavy", "workload: sync-heavy, page-heavy or durable-serve")
	seed := fs.Int64("seed", 42, "workload seed, passed to the program as its input seed")
	seconds := fs.Float64("seconds", 10, "how long the timed loop runs")
	traceFlag := fs.Int("trace", 0, "1 for the traced run, which prints the per-layer metrics")
	scratch := fs.String("scratch", ".bench_build/scratch", "directory for the durable-serve commit logs and journals")
	root := fs.String("root", ".", "repository root, hashed into the provenance manifest")
	corrupt := fs.Bool("corrupt-reference", false, "flip a bit of the reference checksum, to show that a wrong result fails the benchmark")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	traced := *traceFlag == 1
	w, err := workloadByName(*name)
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp(*scratch, "run-*")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)

	b, err := newBench(w, *seed, dir)
	if err != nil {
		return fail(err)
	}
	if *corrupt {
		b.ref ^= 1
	}
	man, err := newManifest(b, *root, traced)
	if err != nil {
		return fail(err)
	}
	mj, _ := json.Marshal(man)
	fmt.Fprintf(stdout, "manifest %s\n", mj)
	fmt.Fprintf(stdout, "reference checksum %016x (%s, %d threads, scale %d, seed %d, sim host)\n",
		b.ref, b.bench, b.params.Threads, b.params.Scale, b.params.Seed)

	dur := time.Duration(*seconds * float64(time.Second))
	t := newTally()
	var metrics []metric
	values := map[string]float64{}
	if traced {
		spans := &spanLog{base: time.Now()}
		if err := measureTraced(b, dur, spans, t, values); err != nil {
			return fail(err)
		}
		metrics = perLayer
	} else {
		measureUntraced(b, dur, t, values)
		metrics = endToEnd
	}
	t.report(stdout, b)
	return printResult(stdout, stderr, t, metrics, values)
}

// tally counts runs and keeps the timings of the correct ones.
type tally struct {
	attempted, failed  int
	firstErr           error
	run, setup, settle []float64 // ms, s, ms
	reads              readMetrics
}

// newTally sizes the timing slices up front, so that appending to them
// does not grow the live heap during the timed loop.
func newTally() *tally {
	const size = 1 << 14
	return &tally{
		run:    make([]float64, 0, size),
		setup:  make([]float64, 0, size),
		settle: make([]float64, 0, size),
	}
}

// check counts a result and reports whether it was correct.
func (t *tally) check(r result) bool {
	t.attempted++
	if r.err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = r.err
		}
		return false
	}
	return true
}

// note checks a timed result and keeps its timings.
func (t *tally) note(r result) {
	if !t.check(r) {
		return
	}
	t.run = append(t.run, float64(r.runNS)/nsPerMS)
	t.setup = append(t.setup, float64(r.setupNS)/1e9)
	t.settle = append(t.settle, float64(r.settleNS)/nsPerMS)
	t.reads.add(r.reads, r.readNS)
}

// warm runs and checks the warm-up iterations and returns the number of
// the first timed one.
func warm(b *bench, t *tally) int {
	for iter := 0; iter < warmup; iter++ {
		t.check(b.iterate(iter, nil))
	}
	return warmup
}

// report prints the sample counts, failures and the read metrics that are
// not end-to-end gates.
func (t *tally) report(w io.Writer, b *bench) {
	p90 := quantile(t.run, 0.9)
	fmt.Fprintf(w, "runs %d timed of %d attempted, %d failed (failed_frac %.4f); %d timed runs above run_ms_p90\n",
		len(t.run), t.attempted, t.failed, frac(float64(t.failed), float64(t.attempted)), above(t.run, p90))
	if t.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", t.firstErr)
	}
	if b.durable {
		fmt.Fprintf(w, "reads %d at %d/s: read_us_p50 %.1f us, read_reject_frac %.4f\n",
			t.reads.lat.n, readRate, t.reads.latencyUS(), t.reads.rejectFrac())
	}
}

func measureUntraced(b *bench, dur time.Duration, t *tally, values map[string]float64) {
	iter := warm(b, t)
	for deadline := time.Now().Add(dur); iter == warmup || time.Now().Before(deadline); iter++ {
		runtime.GC()
		t.note(b.iterate(iter, nil))
	}
	values["run_ms_p50"] = median(t.run)
	values["run_ms_p90"] = quantile(t.run, 0.9)
	values["setup_s"] = median(t.setup)
	values["durable_ms_p50"] = median(t.settle)
}

// measureTraced alternates untraced and traced iterations, so the
// tracing overhead is measured under the same conditions, then makes the
// pthreads reference runs.
func measureTraced(b *bench, dur time.Duration, spans *spanLog, t *tally, values map[string]float64) error {
	iter := warm(b, t)
	var tracedRun []float64
	var reads readMetrics
	perIter := map[string][]float64{}
	for deadline := time.Now().Add(dur); iter == warmup || time.Now().Before(deadline); iter += 2 {
		runtime.GC()
		t.note(b.iterate(iter, nil))
		runtime.GC()
		from := spans.len()
		r := b.iterate(iter+1, spans)
		if !t.check(r) {
			continue
		}
		tracedRun = append(tracedRun, float64(r.runNS)/nsPerMS)
		reads.add(r.reads, r.readNS)
		m, err := iterLayers(r, spans.totals(from))
		if err != nil {
			return err
		}
		for k, v := range m {
			perIter[k] = append(perIter[k], v)
		}
	}
	for k, vs := range perIter {
		values[k] = median(vs)
	}
	reads.put(values)
	untraced := median(t.run)
	values["trace.overhead_frac"] = frac(median(tracedRun), untraced) - 1
	for _, p := range modelPhases {
		values["model."+p.metric+"_ratio"] = frac(values["phase."+p.phase], b.model[p.phase])
	}

	pt, err := b.pthreadsRuns(pthreadsRunCount, spans)
	t.attempted += len(pt)
	if err != nil {
		t.check(result{err: err})
	}
	values["ref.pthreads_run_ms_p50"] = median(pt)
	values["ref.overhead_x"] = frac(untraced, median(pt))
	return nil
}

// printResult prints each metric on its own line and then the result
// object as the last line, and returns the exit code.
func printResult(stdout, stderr io.Writer, t *tally, metrics []metric, values map[string]float64) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]value{}}
	for _, m := range metrics {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Only a latency median can be infinite: more than half of
			// the reads were rejected.
			fmt.Fprintf(stderr, "perfbench: %s is %v; reported as -1\n", m.name, v)
			v = -1
		}
		fmt.Fprintf(stdout, "%-30s %16.6f %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = value{v, m.unit}
	}
	j, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", j)
	if !out.Correct {
		return 1
	}
	return 0
}
