package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/baseline/pth"
	"repro/internal/host/realhost"
	"repro/internal/obs/analyze"
)

type metric struct {
	name, unit string
}

// endToEnd are the metrics of the untraced run, the ones a change is
// gated on. durable_ms_p50 is the time from Run returning until the
// result is settled and read back: on durable-serve, every follower
// caught up and the journal and the commit log closed, then, on every
// workload, the final state read back (det.Runtime.Checksum). On the
// in-memory workloads it is the read-back alone.
var endToEnd = []metric{
	{"run_ms_p50", "ms"},
	{"run_ms_p90", "ms"},
	{"setup_s", "s"},
	{"durable_ms_p50", "ms"},
}

// modelPhases pairs each model-residual metric with the timeline phase it
// compares.
var modelPhases = []struct{ metric, phase string }{
	{"compute", "compute"},
	{"token_wait", "token-wait"},
	{"commit", "commit"},
	{"merge", "merge"},
	{"fault", "fault"},
	{"spec_diff", "spec-diff"},
	{"prefetch", "prefetch"},
	{"handoff", "handoff"},
}

// perLayer are the metrics of the traced run. Every workload prints all
// of them; a layer the workload does not exercise reads 0. Per-run values
// are medians over the traced iterations; read values pool every read.
var perLayer = func() []metric {
	ms := []metric{
		{"clock.token_grants", "count"},
		{"clock.token_wait_ms", "ms"},
		{"clock.token_wait_path_frac", "ratio"},
		{"host.handoff_ms", "ms"},
		{"host.spawn_ms", "ms"},
		{"det.sync_ops", "count"},
		{"det.coarsened_frac", "ratio"},
		{"det.commits", "count"},
		{"det.compute_ms", "ms"},
		{"det.barrier_wait_ms", "ms"},
		{"mem.faults", "count"},
		{"mem.fault_ms", "ms"},
		{"mem.commit_ms", "ms"},
		{"mem.commit_serial_ms", "ms"},
		{"mem.merge_ms", "ms"},
		{"mem.merged_pages", "count"},
		{"mem.pulled_pages", "count"},
		{"mem.diff_bytes", "bytes"},
		{"mem.peak_pages", "count"},
		{"predict.prefetch_ms", "ms"},
		{"predict.spec_diff_ms", "ms"},
		{"predict.prefetch_useful_frac", "ratio"},
		{"predict.spec_diff_hit_frac", "ratio"},
		{"predict.path_frac", "ratio"},
		{"commitlog.bytes_per_commit", "bytes"},
		{"commitlog.append_stalls", "count"},
		{"commitlog.create_ms", "ms"},
		{"commitlog.close_ms", "ms"},
		{"commitlog.segments", "count"},
		{"commitlog.snapshots", "count"},
		{"journal.bytes_per_event", "bytes"},
		{"journal.flush_stalls", "count"},
		{"journal.create_ms", "ms"},
		{"journal.close_ms", "ms"},
		{"replica.start_ms", "ms"},
		{"replica.read_call_us_p50", "us"},
		{"replica.read_call_us_p99", "us"},
		{"replica.lag_versions_p50", "versions"},
		{"replica.lag_versions_p99", "versions"},
		{"replica.catchup_ms", "ms"},
		{"replica.redirected_frac", "ratio"},
		{"replica.restarts", "count"},
		{"loadgen.late_ms_max", "ms"},
		{"loadgen.reads_per_s", "1/s"},
		{"read_us_p50", "us"},
		{"read_reject_frac", "ratio"},
		{"trace.overhead_frac", "ratio"},
	}
	for _, p := range modelPhases {
		ms = append(ms, metric{"model." + p.metric + "_ratio", "ratio"})
	}
	return append(ms,
		metric{"ref.pthreads_run_ms_p50", "ms"},
		metric{"ref.overhead_x", "x"},
	)
}()

const nsPerMS = 1e6

// iterLayers derives one traced iteration's per-run layer values from
// the runtime's stats, the attached observer (its counters and the
// analyzer's phase totals and critical path) and the iteration's spans.
func iterLayers(r result, spanNS map[string]int64) (map[string]float64, error) {
	rep, err := analyze.Analyze(analyze.FromObserver(r.obs, "perfbench"))
	if err != nil {
		return nil, err
	}
	if rep.Partial {
		return nil, fmt.Errorf("observer dropped %d timeline events", rep.DroppedEvents)
	}
	phase := phaseNS(rep)
	path := map[string]float64{}
	for _, p := range rep.CriticalPath.ByPhase {
		path[p.Phase] = frac(float64(p.TotalNS), float64(rep.CriticalPath.TotalNS))
	}
	reg := map[string]float64{}
	for _, s := range r.obs.Registry().Snapshot() {
		reg[s.Name] += float64(s.Value)
	}
	st := r.rt.Stats()
	f := func(n int64) float64 { return float64(n) }
	m := map[string]float64{
		"clock.token_grants":         f(st.TokenGrants),
		"clock.token_wait_ms":        phase["token-wait"] / nsPerMS,
		"clock.token_wait_path_frac": path["token-wait"],
		"host.handoff_ms":            phase["handoff"] / nsPerMS,
		"host.spawn_ms":              phase["spawn"] / nsPerMS,
		"det.sync_ops":               f(st.SyncOps),
		"det.coarsened_frac":         frac(f(st.CoarsenedOps), f(st.SyncOps)),
		"det.commits":                f(rep.Commits.Count),
		"det.compute_ms":             phase["compute"] / nsPerMS,
		"det.barrier_wait_ms":        phase["barrier-wait"] / nsPerMS,
		"mem.faults":                 f(st.Faults),
		"mem.fault_ms":               phase["fault"] / nsPerMS,
		"mem.commit_ms":              phase["commit"] / nsPerMS,
		// The runtime's serial-commit counter holds the cost-model charge,
		// also on the real host; mem.commit_ms is the measured span.
		"mem.commit_serial_ms":         reg["mem_commit_serial_ns"] / nsPerMS,
		"mem.merge_ms":                 phase["merge"] / nsPerMS,
		"mem.merged_pages":             f(st.MergedPages),
		"mem.pulled_pages":             f(st.PulledPages),
		"mem.diff_bytes":               reg["mem_diff_bytes"],
		"mem.peak_pages":               f(st.PeakPages),
		"predict.prefetch_ms":          phase["prefetch"] / nsPerMS,
		"predict.spec_diff_ms":         phase["spec-diff"] / nsPerMS,
		"predict.prefetch_useful_frac": frac(f(st.PrefetchHits), f(st.PrefetchHits+st.PrefetchWasted)),
		"predict.spec_diff_hit_frac":   frac(reg["mem_spec_diff_hits"], reg["mem_spec_diff_hits"]+reg["mem_spec_diff_misses"]),
		"predict.path_frac":            path["spec-diff"] + path["prefetch"],
		"commitlog.bytes_per_commit":   frac(f(r.log.Bytes), f(r.log.Commits)),
		"commitlog.append_stalls":      f(r.log.AppendStalls),
		"commitlog.create_ms":          f(spanNS["commitlog.Create"]) / nsPerMS,
		"commitlog.close_ms":           f(spanNS["commitlog.Close"]) / nsPerMS,
		"commitlog.segments":           f(r.log.Segments),
		"commitlog.snapshots":          f(r.log.Snapshots),
		"journal.bytes_per_event":      frac(f(r.jour.Bytes), f(r.jour.Events)),
		"journal.flush_stalls":         f(r.jour.FlushStalls),
		"journal.create_ms":            f(spanNS["journal.Create"]) / nsPerMS,
		"journal.close_ms":             f(spanNS["journal.Close"]) / nsPerMS,
		"replica.start_ms":             f(spanNS["replica.Fleet.Start"]) / nsPerMS,
		"replica.catchup_ms":           f(spanNS["replica.Fleet.WaitCaughtUp"]) / nsPerMS,
		"replica.restarts":             f(r.fleet.Restarts),
		"replica.redirected_frac":      frac(f(r.fleet.ReadsRedirected), f(r.fleet.ReadsServed+r.fleet.ReadsRedirected+r.fleet.ReadsRejected)),
	}
	for _, p := range modelPhases {
		m["phase."+p.phase] = phase[p.phase]
	}
	return m, nil
}

// phaseNS returns the analyzer's per-phase totals, summed over threads.
func phaseNS(rep *analyze.Report) map[string]float64 {
	out := map[string]float64{}
	for _, p := range rep.PhaseTotals {
		out[p.Phase] = float64(p.TotalNS)
	}
	return out
}

// readMetrics pools the open-loop reads of every iteration. A rejected
// read counts as missing any latency limit, so it enters the latency
// distribution as +Inf.
type readMetrics struct {
	lat, call, lag hist
	rejected       int64
	lateMax        float64
	activeNS       int64
}

func (rm *readMetrics) add(reads []read, activeNS int64) {
	rm.activeNS += activeNS
	for _, r := range reads {
		rm.call.add(float64(r.callNS))
		rm.lateMax = math.Max(rm.lateMax, float64(r.dueNS))
		if r.rejected {
			rm.rejected++
			rm.lat.add(math.Inf(1))
			continue
		}
		rm.lat.add(float64(r.latNS))
		if r.latest {
			rm.lag.add(float64(r.lag))
		}
	}
}

func (rm *readMetrics) latencyUS() float64 { return rm.lat.quantile(0.5) / 1e3 }

func (rm *readMetrics) rejectFrac() float64 {
	return frac(float64(rm.rejected), float64(rm.lat.n))
}

func (rm *readMetrics) put(m map[string]float64) {
	m["read_us_p50"] = rm.latencyUS()
	m["read_reject_frac"] = rm.rejectFrac()
	m["replica.read_call_us_p50"] = rm.call.quantile(0.5) / 1e3
	m["replica.read_call_us_p99"] = rm.call.quantile(0.99) / 1e3
	m["replica.lag_versions_p50"] = rm.lag.quantile(0.5)
	m["replica.lag_versions_p99"] = rm.lag.quantile(0.99)
	m["loadgen.late_ms_max"] = rm.lateMax / nsPerMS
	m["loadgen.reads_per_s"] = frac(float64(rm.lat.n), float64(rm.activeNS)/1e9)
}

// pthreadsRuns runs the program on the pthreads baseline, on the real
// host, n times and returns the wall time of each run in ms. Every run's
// checksum is held to the reference; on the first failure it returns the
// runs so far and the error.
func (b *bench) pthreadsRuns(n int, spans *spanLog) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		rt, err := pth.New(pth.Config{SegmentSize: b.cfg.SegmentSize, Model: b.cfg.Model}, realhost.New(0, 0))
		if err != nil {
			return out, err
		}
		runtime.GC()
		sp := spans.start("pth.Runtime.Run")
		t := time.Now()
		err = rt.Run(b.prog.Prog(b.params))
		d := time.Since(t)
		spans.end(sp)
		if err != nil {
			return out, fmt.Errorf("pthreads run: %w", err)
		}
		if got := rt.Checksum(); got != b.ref {
			return out, fmt.Errorf("pthreads checksum %016x, reference %016x", got, b.ref)
		}
		out = append(out, float64(d.Nanoseconds())/nsPerMS)
	}
	return out, nil
}
