package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/commitlog"
	"repro/internal/det"
	"repro/internal/host/realhost"
	"repro/internal/host/simhost"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/replica"
	"repro/internal/workload"
)

// Program threads. The reference box has two cores, and no run may ask for
// more threads than there are cores.
const (
	benchThreads = 2
	benchScale   = 4
)

// Open-loop reader of durable-serve: a fixed rate, 90% latest reads on a
// rotating page and 10% versioned reads at a seeded retained version.
const (
	readRate        = 5000
	readLatestShare = 0.9
)

// caughtUpTimeout bounds the wait for followers after a run; a run that
// hits it fails.
const caughtUpTimeout = 30 * time.Second

// spec is one named workload: a golden program at fixed (threads, scale),
// optionally with the persistence pair, a replica fleet and a reader
// attached.
type spec struct {
	name    string
	bench   string
	durable bool
}

// workloads are chosen so that each layer has one workload that
// exercises it and one that bypasses it (BENCHMARK.json records which):
// sync-heavy is token handoff and commit publish with few faults,
// page-heavy is faults, diffs, merges and prediction with few sync ops,
// and durable-serve is sync-heavy with the commit log, the journal and a
// replica fleet serving reads beside the writes.
var workloads = []spec{
	{name: "sync-heavy", bench: "water_nsquared"},
	{name: "page-heavy", bench: "canneal"},
	{name: "durable-serve", bench: "water_nsquared", durable: true},
}

func workloadByName(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// bench is a workload instantiated for one seed: the program, its runtime
// configuration, and the reference checksum and modeled phase totals of
// a simulation-host run of the same program.
type bench struct {
	spec
	prog    workload.Spec
	params  workload.Params
	cfg     det.Config
	ref     uint64
	model   map[string]float64 // modeled ns per timeline phase
	scratch string             // directory for commit logs and journals
}

func newBench(w spec, seed int64, scratch string) (*bench, error) {
	prog, err := workload.ByName(w.bench)
	if err != nil {
		return nil, err
	}
	p := workload.Params{Threads: benchThreads, Scale: benchScale, Seed: seed}
	cfg := det.Default()
	cfg.SegmentSize = prog.SegmentSize(p)
	b := &bench{spec: w, prog: prog, params: p, cfg: cfg, scratch: scratch}
	return b, b.simulate()
}

// simulate runs the program once on the simulation host, with an observer
// attached, for the reference checksum and the modeled phase totals.
func (b *bench) simulate() error {
	rt, err := det.New(b.cfg, simhost.New(b.cfg.Model))
	if err != nil {
		return err
	}
	o := obs.New()
	rt.SetObserver(o)
	if err := rt.Run(b.prog.Prog(b.params)); err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	b.ref = rt.Checksum()
	rep, err := analyze.Analyze(analyze.FromObserver(o, "perfbench reference"))
	if err != nil {
		return err
	}
	b.model = phaseNS(rep)
	return nil
}

// result is what one iteration measured. Durations are zero where the
// workload has no such step.
type result struct {
	err      error
	setupNS  int64 // det.New, plus commitlog.Create, journal.Create and Fleet.Start on durable-serve
	runNS    int64 // det.Runtime.Run
	settleNS int64 // Run returning until the result is durable (durable-serve) and read back

	rt    *det.Runtime
	obs   *obs.Observer // nil unless traced
	log   commitlog.Stats
	jour  journal.Stats
	fleet replica.FleetStats
	reads []read
	// readNS is how long the reader was generating reads.
	readNS int64
}

// read is one open-loop read of durable-serve.
type read struct {
	latest   bool
	rejected bool
	dueNS    int64 // lateness of the generator: call start minus due time
	latNS    int64 // completion minus due time
	callNS   int64 // completion minus call start
	lag      int64 // writer version minus the version a latest read returned
	version  int64
	page     int
	sum      uint64 // FNV-1a of the returned page
}

// iterate runs the program once on the real host and checks its result
// against the reference. iter numbers the iteration. A non-nil spans
// traces the iteration: it records spans around each call into a layer
// and attaches an observer to the runtime and the replica fleet.
func (b *bench) iterate(iter int, spans *spanLog) (r result) {
	if spans != nil {
		r.obs = obs.New()
	}

	t0 := time.Now()
	sp := spans.start("det.New")
	rt, err := det.New(b.cfg, realhost.New(0, 0))
	spans.end(sp)
	if err != nil {
		r.err = err
		return r
	}
	r.rt = rt
	if r.obs != nil {
		rt.SetObserver(r.obs)
	}
	var p *persistence
	if b.durable {
		dir := filepath.Join(b.scratch, fmt.Sprintf("iter-%d", iter))
		defer os.RemoveAll(dir)
		if p, r.err = b.persist(rt, dir, r.obs, spans); r.err != nil {
			return r
		}
		defer p.close()
	}
	r.setupNS = time.Since(t0).Nanoseconds()

	var rd *reader
	if p != nil {
		rd = startReader(p.fl, rt, b.params.Seed*1_000_003+int64(iter), spans)
	}
	t1 := time.Now()
	sp = spans.start("det.Runtime.Run")
	r.err = rt.Run(b.prog.Prog(b.params))
	spans.end(sp)
	t2 := time.Now()
	r.runNS = t2.Sub(t1).Nanoseconds()

	var got uint64
	if r.err == nil && p != nil {
		r.err = p.settle(rt.Segment().Head(), spans)
	}
	if r.err == nil {
		sp = spans.start("det.Runtime.Checksum")
		got = rt.Checksum()
		spans.end(sp)
		r.settleNS = time.Since(t2).Nanoseconds()
	}
	if rd != nil {
		r.reads, r.readNS = rd.stop()
	}
	if r.err != nil {
		return r
	}
	if got != b.ref {
		r.err = fmt.Errorf("checksum %016x, reference %016x", got, b.ref)
		return r
	}
	if p != nil {
		r.log, r.jour, r.fleet = p.cl.Stats(), p.jw.Stats(), p.fl.Stats()
		r.err = b.checkReplicas(p.fl, r.reads)
	}
	return r
}

// persistence is durable-serve's commit log, journal and replica fleet,
// attached to one runtime.
type persistence struct {
	cl *commitlog.Log
	jw *journal.Writer
	fl *replica.Fleet
}

// persist creates a commit log and a journal under dir, attaches both to
// rt, and starts a fleet of two followers and an archive that tails the
// log. o, when non-nil, also receives the fleet's metrics.
func (b *bench) persist(rt *det.Runtime, dir string, o *obs.Observer, spans *spanLog) (*persistence, error) {
	meta := map[string]string{"bench": b.bench}
	p := &persistence{}
	var err error
	sp := spans.start("commitlog.Create")
	p.cl, err = commitlog.Create(filepath.Join(dir, "log"), commitlog.Options{Meta: meta})
	spans.end(sp)
	if err != nil {
		return nil, err
	}
	sp = spans.start("journal.Create")
	p.jw, err = journal.Create(filepath.Join(dir, "run.csqj"), meta)
	spans.end(sp)
	if err != nil {
		p.cl.Close()
		return nil, err
	}
	rt.SetJournal(p.jw)
	if err := rt.SetCommitLog(p.cl); err != nil {
		p.close()
		return nil, err
	}
	opts := replica.Options{Followers: 2, Archive: true}
	if o != nil {
		opts.Registry = o.Registry()
	}
	p.fl = replica.New(p.cl.Dir(), p.cl, opts)
	sp = spans.start("replica.Fleet.Start")
	err = p.fl.Start()
	spans.end(sp)
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// settle waits for every follower to apply version final, then closes
// the journal and the commit log.
func (p *persistence) settle(final int64, spans *spanLog) error {
	sp := spans.start("replica.Fleet.WaitCaughtUp")
	errWait := p.fl.WaitCaughtUp(final, caughtUpTimeout)
	spans.end(sp)
	sp = spans.start("journal.Close")
	errJournal := p.jw.Close()
	spans.end(sp)
	sp = spans.start("commitlog.Close")
	errLog := p.cl.Close()
	spans.end(sp)
	return errors.Join(errWait, errJournal, errLog)
}

// close releases whatever settle did not. Its errors are dropped: on the
// success path settle already returned them, and on a failure path the
// iteration has failed anyway.
func (p *persistence) close() {
	p.cl.Close()
	p.jw.Close()
	if p.fl != nil {
		p.fl.Close()
	}
}

// checkReplicas holds every follower to the reference checksum and every
// answered read to the archive follower's copy of the same (version, page).
func (b *bench) checkReplicas(fl *replica.Fleet, reads []read) error {
	fs := fl.Followers()
	for _, f := range fs {
		if got := f.Checksum(); got != b.ref {
			return fmt.Errorf("follower %d checksum %016x, reference %016x", f.ID(), got, b.ref)
		}
	}
	archive := fs[len(fs)-1]
	for _, rd := range reads {
		if rd.rejected {
			continue
		}
		want, err := archive.ReadAt(rd.version, rd.page)
		if err != nil {
			return fmt.Errorf("archive read (version %d, page %d): %w", rd.version, rd.page, err)
		}
		if pageSum(want) != rd.sum {
			return fmt.Errorf("read (version %d, page %d) differs from the archive", rd.version, rd.page)
		}
	}
	return nil
}

func pageSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// reader is the open-loop read generator of durable-serve. Each read is
// due at a fixed interval from the start; it is timed from when it was
// due, so a stall also delays the reads queued behind it.
type reader struct {
	quit  chan struct{}
	done  chan struct{}
	start time.Time
	out   []read
}

// startReader starts the reader on fl. A versioned read picks a version
// inside the serving followers' undo window below the frontier (the
// fleet's default, 256 versions), so it is one a caught-up follower
// retains.
func startReader(fl *replica.Fleet, rt *det.Runtime, seed int64, spans *spanLog) *reader {
	const history = 256
	rd := &reader{quit: make(chan struct{}), done: make(chan struct{}), start: time.Now()}
	rng := rand.New(rand.NewSource(seed))
	npages := fl.NumPages()
	interval := time.Second / readRate
	go func() {
		defer close(rd.done)
		timer := time.NewTimer(time.Hour)
		timer.Stop()
		defer timer.Stop()
		for i := 0; ; i++ {
			due := rd.start.Add(time.Duration(i) * interval)
			if wait := time.Until(due); wait > 0 {
				timer.Reset(wait)
				select {
				case <-rd.quit:
					return
				case <-timer.C:
				}
			} else {
				select {
				case <-rd.quit:
					return
				default:
				}
			}
			r := read{latest: rng.Float64() < readLatestShare, page: i % npages}
			var sp int
			var b []byte
			var err error
			called := time.Now()
			if r.latest {
				sp = spans.start("replica.Fleet.ReadLatest")
				b, r.version, err = fl.ReadLatest(r.page)
			} else {
				front := max(fl.Frontier(), 0)
				low := max(front-history+1, 0)
				r.version = low + rng.Int63n(front-low+1)
				sp = spans.start("replica.Fleet.ReadAt")
				b, err = fl.ReadAt(r.version, r.page)
			}
			doneAt := time.Now()
			spans.end(sp)
			if r.latest && err == nil && spans != nil {
				r.lag = rt.Segment().Head() - r.version
			}
			r.dueNS = called.Sub(due).Nanoseconds()
			r.callNS = doneAt.Sub(called).Nanoseconds()
			r.latNS = doneAt.Sub(due).Nanoseconds()
			if err != nil {
				r.rejected = true
			} else {
				r.sum = pageSum(b)
			}
			rd.out = append(rd.out, r)
		}
	}()
	return rd
}

// stop ends the generator and returns its reads and how long it ran.
func (rd *reader) stop() ([]read, int64) {
	close(rd.quit)
	<-rd.done
	return rd.out, time.Since(rd.start).Nanoseconds()
}

// spanLog keeps spans recorded around the calls the benchmark makes into
// each layer. A nil *spanLog records nothing: iterations that are not
// traced pass nil.
type spanLog struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call, in ns since the log's base.
type span struct {
	name       string
	start, end int64
}

// start records the start of a call into a layer and returns the span's
// ID for end.
func (l *spanLog) start(name string) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.base).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name: name, start: now})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(l.base).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].end = now
	l.mu.Unlock()
}

// len returns how many spans have been recorded.
func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// totals sums span durations by name over the spans recorded from index
// from on.
func (l *spanLog) totals(from int) map[string]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string]int64{}
	for _, s := range l.spans[from:] {
		out[s.name] += s.end - s.start
	}
	return out
}
