// Command detrun runs one benchmark program under a chosen runtime and
// reports its final-memory checksum, sync-order trace hash, and run
// statistics. With -verify it executes the program repeatedly (and, for
// the Consequence runtimes, also on a schedule-perturbed real host) and
// checks that every run agrees — a direct demonstration of the
// determinism guarantee.
//
// Usage:
//
//	detrun -bench ferret -runtime consequence-ic -threads 8
//	detrun -bench canneal -runtime dthreads -verify
//	detrun -bench histogram -runtime pthreads       # nondeterministic ref
//	detrun -bench ferret -trace /tmp/ferret.json    # Chrome/Perfetto trace
//	detrun -bench ferret -metrics                   # metrics snapshot
//	detrun -bench ferret -journal /tmp/a.csqj       # divergence journal (conseq-diff)
//	detrun -bench ferret -commitlog /tmp/alog       # persistent commit log (conseq-replay)
//	detrun -bench ferret -analyze                   # critical-path report
//	detrun -bench ferret -real -listen :9090        # live /metrics + pprof
//	detrun -list
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/baseline/dthreads"
	"repro/internal/baseline/dwc"
	"repro/internal/baseline/pth"
	"repro/internal/baseline/rfdet"
	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/commitlog"
	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/harness"
	"repro/internal/host"
	"repro/internal/host/realhost"
	"repro/internal/host/simhost"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/trace"
	"repro/internal/workload"
)

// predictFlag gates write-set prediction on the consequence runtimes. A
// package-level flag so mkRuntime sees it from the direct, -verify and
// -compare paths alike. Results are identical either way (prediction is
// an overlap optimization); the flag exists so the determinism gate can
// assert exactly that, and so timings can be compared on/off.
var predictFlag = flag.Bool("predict", true, "enable write-set prediction (page prefetch during token wait) on the consequence runtimes")

// chaosFlag arms seeded fault injection on the consequence runtimes. A
// package-level flag so mkRuntime sees it from the direct, -verify and
// -compare paths alike; each mkRuntime call builds a fresh injector from
// the spec, so every run of a (profile, seed) pair replays identically.
// Results are identical with chaos on or off (perturbations are confined
// to modeled time and advisory predictions); the chaos determinism gate
// in scripts/check.sh asserts exactly that.
var chaosFlag = flag.String("chaos", "", "arm seeded fault injection on the consequence runtimes: profile[:seed], e.g. storm:7 (profiles: "+strings.Join(chaos.Profiles(), ", ")+")")

// shardsFlag selects the scheduler on the consequence runtimes. 1 (the
// default) is the single global token; N >= 2 is the scale-out scheduler
// (docs/scheduler.md): per-shard granting over N shards, with the
// deterministic worker pool pre-spawned to the benchmark thread count and
// lazy fast-forward. Checksums are identical at every shard count, and
// each count's sync-order hash is itself a deterministic constant
// (per-shard grant loops legitimately interleave threads differently at
// different counts, so the hash is pinned per count, not across counts);
// the shard determinism gate in scripts/check.sh asserts exactly that
// against its per-count golden set.
var shardsFlag = flag.Int("shards", 1, "token arbitration shards on the consequence runtimes (>=2 also enables the worker pool and lazy fast-forward)")

// benchThreads mirrors -threads for mkRuntime (the worker-pool prespawn
// depth), set once after flag parsing.
var benchThreads int

func main() {
	bench := flag.String("bench", "histogram", "benchmark name (see -list)")
	rtName := flag.String("runtime", "consequence-ic", "consequence-ic | consequence-rr | dthreads | dwc | pthreads | rfdet-lrc")
	threads := flag.Int("threads", 4, "thread count")
	scale := flag.Int("scale", 1, "problem-size multiplier")
	seed := flag.Int64("seed", 42, "input seed")
	verify := flag.Bool("verify", false, "run repeatedly (sim + perturbed real host) and check determinism")
	compare := flag.Bool("compare", false, "run the benchmark on every runtime and tabulate")
	useReal := flag.Bool("real", false, "run on the real (goroutine) host instead of the simulator")
	traceOut := flag.String("trace", "", "write a phase-resolved Chrome trace (chrome://tracing / Perfetto JSON) to this file")
	metrics := flag.Bool("metrics", false, "print the observability metrics snapshot after the run")
	analyzeRun := flag.Bool("analyze", false, "print the critical-path analysis report after the run (see conseq-analyze)")
	listen := flag.String("listen", "", "serve live /metrics (Prometheus text format) and /debug/pprof on this address during the run (e.g. :9090)")
	sample := flag.Duration("sample", 0, "snapshot the metrics registry at this interval and print per-interval deltas after the run (e.g. 100ms)")
	dumpTrace := flag.Int("dump-sync", 0, "dump the first N sync-order events")
	watchdog := flag.Duration("watchdog", 0, "real-host stall watchdog: if any thread stays blocked longer than this, dump per-thread diagnostics and exit non-zero (requires -real)")
	timeout := flag.Duration("timeout", 0, "bound the run's host wall clock: on expiry dump goroutine stacks and runtime state and exit non-zero (e.g. 30s)")
	journalPath := flag.String("journal", "", "write the run's divergence journal (sync events, hash checkpoints, commit page hashes) to this file; compare two with conseq-diff")
	commitLogDir := flag.String("commitlog", "", "write the run's persistent commit log (committed page diffs, segmented) into this empty directory; replay with conseq-replay")
	list := flag.Bool("list", false, "list benchmarks and exit")
	listChaos := flag.Bool("list-chaos", false, "list built-in chaos profiles and exit")
	flag.Parse()
	benchThreads = *threads

	if *timeout > 0 {
		defer armTimeout(*timeout).Stop()
	}

	if *list {
		for _, s := range workload.All() {
			fmt.Printf("%-18s %-8s %s\n", s.Name, s.Suite, s.Class)
		}
		return
	}
	if *listChaos {
		for _, name := range chaos.Profiles() {
			fmt.Println(name)
		}
		return
	}

	spec, err := workload.ByName(*bench)
	if err != nil {
		fatal(err)
	}
	p := workload.Params{Threads: *threads, Scale: *scale, Seed: *seed}

	if *verify {
		if *journalPath != "" {
			fatal(fmt.Errorf("-journal records a single run; use it without -verify (journal two runs and conseq-diff them instead)"))
		}
		if *commitLogDir != "" {
			fatal(fmt.Errorf("-commitlog records a single run; use it without -verify"))
		}
		runVerify(spec, p, *rtName)
		return
	}
	if *compare {
		if *journalPath != "" {
			fatal(fmt.Errorf("-journal records a single run; use it without -compare"))
		}
		if *commitLogDir != "" {
			fatal(fmt.Errorf("-commitlog records a single run; use it without -compare"))
		}
		runCompare(spec, p)
		return
	}

	h := mkHost(*useReal, 0)
	if *watchdog > 0 {
		rh, ok := h.(*realhost.Host)
		if !ok {
			fatal(fmt.Errorf("-watchdog requires -real (the simulation host proves deadlocks itself)"))
		}
		rh.SetWatchdog(*watchdog, onStall)
	}
	rt, err := mkRuntime(*rtName, spec.SegmentSize(p), h)
	if err != nil {
		fatal(err)
	}
	meta := harness.RunMeta(harness.Options{
		Bench: spec.Name, Runtime: harness.Kind(*rtName),
		Threads: *threads, Scale: *scale, Seed: *seed, Shards: *shardsFlag,
	})
	var jw *journal.Writer
	if *journalPath != "" {
		type journalable interface{ SetJournal(*journal.Writer) }
		jr, ok := rt.(journalable)
		if !ok {
			fatal(fmt.Errorf("runtime %q does not support journaling (the consequence runtimes do)", *rtName))
		}
		jw, err = journal.Create(*journalPath, meta)
		if err != nil {
			fatal(err)
		}
		jr.SetJournal(jw)
	}
	var cl *commitlog.Log
	if *commitLogDir != "" {
		type loggable interface {
			SetCommitLog(*commitlog.Log) error
		}
		lr, ok := rt.(loggable)
		if !ok {
			fatal(fmt.Errorf("runtime %q does not support commit logging (the consequence runtimes do)", *rtName))
		}
		cl, err = commitlog.Create(*commitLogDir, commitlog.Options{Meta: meta})
		if err != nil {
			fatal(err)
		}
		if err := lr.SetCommitLog(cl); err != nil {
			fatal(err)
		}
	}
	var observer *obs.Observer
	if *traceOut != "" || *metrics || *analyzeRun || *listen != "" || *sample > 0 {
		observer = attachObserver(rt)
		if observer == nil {
			fatal(fmt.Errorf("runtime %q does not support observability (consequence and dwc runtimes do)", *rtName))
		}
	}
	if *listen != "" {
		srv, err := observer.ListenAndServe(*listen)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("serving      http://%s/metrics (and /debug/pprof)\n", srv.Addr())
	}
	var sampler *obs.Sampler
	if *sample > 0 {
		sampler = obs.NewSampler(observer.Registry(), *sample)
	}
	start := time.Now()
	if err := rt.Run(spec.Prog(p)); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	if jw != nil {
		if err := jw.Close(); err != nil {
			fatal(err)
		}
	}
	if cl != nil {
		if err := cl.Close(); err != nil {
			fatal(err)
		}
	}
	st := rt.Stats()
	fmt.Printf("benchmark   %s (%s, %s)\n", spec.Name, spec.Suite, spec.Class)
	fmt.Printf("runtime     %s, %d threads, scale %d, seed %d\n", rt.Name(), *threads, *scale, *seed)
	if in, err := chaos.Parse(*chaosFlag); err == nil && in != nil {
		fmt.Printf("chaos       %s\n", in)
	}
	fmt.Printf("checksum    %016x\n", rt.Checksum())
	if tr := traceOf(rt); tr != nil {
		fmt.Printf("trace       %d events, hash %016x\n", tr.Len(), tr.Hash())
	}
	if h.Timed() {
		fmt.Printf("virtual     %.3f ms\n", float64(st.WallNS)/1e6)
	}
	fmt.Printf("host        %.3f ms\n", float64(elapsed.Nanoseconds())/1e6)
	fmt.Printf("sync ops    %d (%d coarsened), token grants %d\n", st.SyncOps, st.CoarsenedOps, st.TokenGrants)
	fmt.Printf("memory      %d versions, %d pages committed (%d merged), %d pulled, %d faults, peak %d pages\n",
		st.Versions, st.CommittedPages, st.MergedPages, st.PulledPages, st.Faults, st.PeakPages)
	if jw != nil {
		js := jw.Stats()
		fmt.Printf("journal     %s: %d events, %d commits, %d checkpoints, %d bytes (%d flush stalls)\n",
			*journalPath, js.Events, js.Commits, js.Checkpoints, js.Bytes, js.FlushStalls)
	}
	if cl != nil {
		cs := cl.Stats()
		fmt.Printf("commitlog   %s: %d commits, %d snapshots, %d segments (%d rolls, %d truncated), %d bytes (%d append stalls)\n",
			*commitLogDir, cs.Commits, cs.Snapshots, cs.Segments, cs.Rolls, cs.Truncated, cs.Bytes, cs.AppendStalls)
	}
	if tr := traceOf(rt); tr != nil && *dumpTrace > 0 {
		evs := tr.Events()
		if len(evs) > *dumpTrace {
			evs = evs[:*dumpTrace]
		}
		for _, e := range evs {
			fmt.Println("  ", e)
		}
	}
	if *traceOut != "" {
		name := fmt.Sprintf("%s %s t=%d scale=%d seed=%d", rt.Name(), spec.Name, *threads, *scale, *seed)
		if err := writeTraceFile(*traceOut, observer, name); err != nil {
			fatal(err)
		}
		fmt.Printf("trace json  %s (%d threads observed)\n", *traceOut, len(observer.Lanes()))
	}
	if *metrics {
		fmt.Println("metrics:")
		for _, s := range observer.Registry().Snapshot() {
			fmt.Println("  ", s)
		}
	}
	if sampler != nil {
		sampler.Stop()
		printSamplePoints(sampler.Points())
	}
	if *analyzeRun {
		name := fmt.Sprintf("%s %s t=%d scale=%d seed=%d", rt.Name(), spec.Name, *threads, *scale, *seed)
		rep, err := analyze.Analyze(analyze.FromObserver(observer, name))
		if err != nil {
			fatal(err)
		}
		if rep.Partial {
			fmt.Fprintf(os.Stderr, "detrun: warning: %d timeline events dropped; analysis is partial\n", rep.DroppedEvents)
		}
		fmt.Println()
		rep.WriteText(os.Stdout)
	}
}

// printSamplePoints renders the sampler's per-interval deltas, skipping
// metrics that did not move in an interval.
func printSamplePoints(pts []obs.SamplePoint) {
	fmt.Printf("samples     %d points\n", len(pts))
	for _, pt := range pts {
		keys := make([]string, 0, len(pt.Deltas))
		for k, d := range pt.Deltas {
			if d != 0 {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		fmt.Printf("  +%-10s", pt.Elapsed.Round(time.Millisecond))
		for _, k := range keys {
			fmt.Printf(" %s=%+d", k, pt.Deltas[k])
		}
		fmt.Println()
	}
}

// attachObserver attaches a fresh observer to runtimes that support one
// (the det-based runtimes: consequence-ic/rr and dwc). Returns nil
// otherwise.
func attachObserver(rt api.Runtime) *obs.Observer {
	type observable interface{ SetObserver(*obs.Observer) }
	or, ok := rt.(observable)
	if !ok {
		return nil
	}
	o := obs.New()
	or.SetObserver(o)
	return o
}

// writeTraceFile exports the observer's timeline as Chrome trace JSON.
func writeTraceFile(path string, o *obs.Observer, name string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := o.WriteChromeTrace(f, name); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runVerify demonstrates determinism: repeated sim runs and (for det
// runtimes) perturbed real-host runs must agree bit-for-bit.
func runVerify(spec workload.Spec, p workload.Params, rtName string) {
	type obs struct {
		label string
		sum   uint64
		thash uint64
	}
	var all []obs
	run := func(label string, h host.Host) {
		rt, err := mkRuntime(rtName, spec.SegmentSize(p), h)
		if err != nil {
			fatal(err)
		}
		if err := rt.Run(spec.Prog(p)); err != nil {
			fatal(err)
		}
		o := obs{label: label, sum: rt.Checksum()}
		if tr := traceOf(rt); tr != nil {
			o.thash = tr.Hash()
		}
		all = append(all, o)
		fmt.Printf("  %-22s checksum=%016x trace=%016x\n", label, o.sum, o.thash)
	}
	fmt.Printf("verifying %s on %s (%d threads):\n", spec.Name, rtName, p.Threads)
	run("sim #1", simhost.New(costmodel.Default()))
	run("sim #2", simhost.New(costmodel.Default()))
	if rtName != string(harness.KindPthreads) {
		run("real perturbed #1", realhost.New(200*time.Microsecond, 1))
		run("real perturbed #2", realhost.New(200*time.Microsecond, 99))
	}
	base := all[0]
	ok := true
	for _, o := range all[1:] {
		if o.sum != base.sum || o.thash != base.thash {
			ok = false
			fmt.Printf("MISMATCH: %s differs from %s\n", o.label, base.label)
		}
	}
	if ok {
		fmt.Println("deterministic: all runs agree")
		return
	}
	if rtName == string(harness.KindPthreads) {
		fmt.Println("(expected: pthreads is the nondeterministic baseline)")
		return
	}
	os.Exit(1)
}

// runCompare tabulates one benchmark across all runtimes on the
// simulation host.
func runCompare(spec workload.Spec, p workload.Params) {
	fmt.Printf("%s (%s), %d threads, scale %d — simulated runtimes:\n\n",
		spec.Name, spec.Suite, p.Threads, p.Scale)
	fmt.Printf("%-16s %10s %10s %10s %12s %10s\n", "runtime", "wall(ms)", "syncOps", "grants", "pagesCommit", "peakPages")
	var pthWall int64
	for _, name := range []string{"pthreads", "consequence-ic", "consequence-rr", "dwc", "dthreads", "rfdet-lrc"} {
		rt, err := mkRuntime(name, spec.SegmentSize(p), simhost.New(costmodel.Default()))
		if err != nil {
			fatal(err)
		}
		if err := rt.Run(spec.Prog(p)); err != nil {
			fatal(err)
		}
		st := rt.Stats()
		norm := ""
		if name == "pthreads" {
			pthWall = st.WallNS
		} else if pthWall > 0 {
			norm = fmt.Sprintf("  (%.2fx)", float64(st.WallNS)/float64(pthWall))
		}
		fmt.Printf("%-16s %10.2f %10d %10d %12d %10d%s\n",
			name, float64(st.WallNS)/1e6, st.SyncOps, st.TokenGrants, st.CommittedPages, st.PeakPages, norm)
	}
}

func mkHost(real bool, perturb time.Duration) host.Host {
	if real {
		return realhost.New(perturb, 0)
	}
	return simhost.New(costmodel.Default())
}

func mkRuntime(name string, segSize int, h host.Host) (api.Runtime, error) {
	m := costmodel.Default()
	if *chaosFlag != "" && name != "consequence-ic" && name != "consequence-rr" {
		return nil, fmt.Errorf("-chaos requires a consequence runtime (got %q)", name)
	}
	switch name {
	case "consequence-ic", "consequence-rr":
		c := det.Default()
		if name == "consequence-rr" {
			c.Policy = clock.PolicyRR
		}
		c.WriteSetPrediction = *predictFlag
		c.SegmentSize = segSize
		c.Model = m
		c.EnableScaleOut(*shardsFlag, benchThreads)
		// A fresh injector per runtime: streams carry per-thread sequence
		// state, so sharing one across runs would decorrelate replays.
		in, err := chaos.Parse(*chaosFlag)
		if err != nil {
			return nil, err
		}
		c.Chaos = in
		rt, err := det.New(c, h)
		if err != nil {
			return nil, err
		}
		lastRuntime.Store(rt)
		return rt, nil
	case "dthreads":
		return dthreads.New(dthreads.Config{SegmentSize: segSize, Model: m}, h)
	case "dwc":
		return dwc.New(dwc.Config{SegmentSize: segSize, Model: m}, h)
	case "pthreads":
		return pth.New(pth.Config{SegmentSize: segSize, Model: m}, h)
	case "rfdet-lrc":
		return rfdet.New(rfdet.Config{SegmentSize: segSize, Model: m}, h)
	}
	return nil, fmt.Errorf("unknown runtime %q", name)
}

// traceOf extracts the trace recorder from runtimes that keep one.
func traceOf(rt api.Runtime) *trace.Recorder {
	type tracer interface{ Trace() *trace.Recorder }
	if t, ok := rt.(tracer); ok {
		return t.Trace()
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "detrun:", err)
	os.Exit(1)
}
