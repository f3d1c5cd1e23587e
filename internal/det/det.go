// Package det implements Consequence: a deterministic multithreading
// runtime with total-store-order memory consistency (Merrifield, Devietti,
// Eriksson — EuroSys 2015).
//
// Threads execute local work against isolated workspaces of a versioned
// memory segment (internal/mem, the Conversion substrate). Every
// synchronization operation requires the single global token, granted in a
// deterministic order by the logical-clock arbiter (internal/clock):
// instruction-count (GMIC/Kendo) order for Consequence-IC, round-robin for
// Consequence-RR. Writes accumulate in per-thread store buffers and publish
// as totally-ordered versions at token-held commits, giving TSO.
//
// The optimizations from §3 of the paper are all implemented and
// individually switchable (Config): adaptive coarsening, adaptive counter
// overflow, thread reuse for fork-join programs, user-space clock reads,
// fast-forward, and the parallel two-phase barrier commit of §4.2.
//
// The runtime is host-agnostic: on internal/host/realhost threads are
// goroutines running in parallel with wall-clock time; on
// internal/host/simhost they are virtual threads with a modeled cost for
// every operation, which is how the benchmark harness regenerates the
// paper's figures deterministically. The logical behaviour — sync order,
// logical clocks, memory state — is identical on both hosts.
package det

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/commitlog"
	"repro/internal/costmodel"
	"repro/internal/host"
	"repro/internal/journal"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/trace"
)

// Config selects the runtime's policies and optimizations. The zero value
// is not valid; start from Default().
type Config struct {
	// Policy is the deterministic ordering discipline: clock.PolicyIC
	// (Consequence-IC) or clock.PolicyRR (Consequence-RR).
	Policy clock.Policy
	// FastForward enables §3.5: a woken thread's clock jumps to the last
	// token releaser's clock.
	FastForward bool

	// Coarsening enables §3.1 chunk coarsening. With StaticLevel == 0 the
	// adaptive policy is used (per-lock and per-thread EWMA chunk
	// estimates bounded by an MIMD-adapted max chunk length); with
	// StaticLevel >= 2, exactly that many coordination phases are fused.
	Coarsening  bool
	StaticLevel int
	// MaxChunkInit/Floor/Cap bound the MIMD adaptation of the maximum
	// coarsened chunk length, in instructions.
	MaxChunkInit  int64
	MaxChunkFloor int64
	MaxChunkCap   int64
	// CoarsenChunkThreshold gates the adaptive policy: a chunk is only
	// fused into a token-held span if its estimated length is at most this
	// many instructions — i.e., comparable to the coordination overhead
	// fusion eliminates. Chunks longer than this do real parallel work
	// that would be serialized for no net gain. (An extension to §3.1's
	// scheme; see DESIGN.md.)
	CoarsenChunkThreshold int64

	// AdaptiveOverflow enables §3.2; OverflowBase is the static interval
	// (and the adaptive policy's per-chunk reset value).
	AdaptiveOverflow bool
	OverflowBase     int64

	// UserspaceClockRead enables §3.4: clock reads at sync ops inside a
	// coarsened chunk skip the syscall.
	UserspaceClockRead bool
	// ThreadPool enables §3.3 thread reuse for fork-join programs on the
	// single-token scheduler (Shards < 2), which recycles exited threads'
	// workspaces. The scale-out scheduler always reuses whole workers.
	ThreadPool bool
	// PoolCap bounds the number of pooled workspaces (Shards < 2) or
	// parked workers (Shards >= 2).
	PoolCap int
	// PoolPrespawn pre-creates this many parked workers before the root
	// thread starts (requires Shards >= 2), so even a program's first
	// spawns adopt instead of forking: worker creation cost lands on the
	// workers' own timelines at startup, overlapping the root thread's
	// ramp-up. Bounded by PoolCap.
	PoolPrespawn int
	// Shards selects the scheduler. 0 and 1 both mean the single global
	// token of §2.4, with the pre-scale-out time model (dwc keeps
	// Shards = 1). Shards >= 2 turns on the scale-out scheduler
	// (docs/scheduler.md), which requires PolicyIC:
	//
	//   - Per-shard granting: lock objects hash into Shards arbitration
	//     shards, each with its own sub-token and release clock. Every
	//     request names a scope — the operation's shard, or a global
	//     scope for cross-shard edges (barriers, forced commits) — blocked
	//     threads fast-forward only into their scope's clock domain, and
	//     grants follow the deterministic merge rule (shard clock, shard
	//     id, tid).
	//   - Worker reuse: an exiting thread parks its host task and
	//     workspace on a replay-stable free list keyed by (exit clock,
	//     tid), and a later Spawn adopts a parked worker instead of
	//     forking; the adopted worker warms its own view up off the
	//     spawner's critical path.
	//   - Lazy fast-forward (§3.5 refined): when FastForward is on, a
	//     woken thread pays Model.WakeHandoff on the wake and the deferred
	//     Model.FastForwardResync when it takes the token.
	//
	// Results (checksums) are byte-identical to the single-token scheduler
	// for race-free programs, but the sync trace legitimately changes:
	// events carry shard provenance and interleave per the merge rule (the
	// ordering-contract equivalence argument in docs/scheduler.md). Each
	// shard count's interleave is itself deterministic.
	Shards int
	// ParallelBarrier enables the two-phase parallel barrier commit (§4.2).
	ParallelBarrier bool
	// SpeculativeDiff hoists commit diff computation off the token path: a
	// thread about to wait for the global token pre-diffs its dirty pages
	// (mem.Workspace.PrepareCommit), and the token-held serial phase reuses
	// those diffs, re-diffing only pages invalidated by a local write or a
	// pulled remote version. Commit order and memory contents are
	// byte-identical either way (Determinator and the Deterministic
	// Consistency model make the same observation: only publication must
	// be ordered, diffing is free to overlap).
	SpeculativeDiff bool
	// WriteSetPrediction moves copy-on-write fault servicing off the token
	// critical path the same way SpeculativeDiff moves diffing: each
	// thread keeps a deterministic per-sync-site history of the pages its
	// chunks wrote (internal/predict, keyed like the unlock chunk
	// estimators), and on the next visit to a site pre-populates the
	// predicted pages (mem.Workspace.Prepopulate) while waiting for the
	// deterministic order. Prediction is advisory: a mispredicted page is
	// byte-identical to the committed state and is dropped unpublished, so
	// checksums, sync traces and commit order are identical with it on or
	// off — only the modeled time moves. The knob also gates the
	// satellite serial-path trims that ride on the same machinery
	// (pre-diffing coarsened-chunk commits, skipping the publish floor for
	// empty commits), so disabling it reproduces the pre-prediction time
	// model exactly.
	WriteSetPrediction bool

	// ChunkLimit > 0 forces a commit+update after that many instructions
	// without one, supporting ad-hoc synchronization (§2.7). The paper's
	// evaluation (and ours) runs with it disabled.
	ChunkLimit int64

	// SingleGlobalLock aliases every mutex to one global lock, the
	// DThreads/DWC locking model the paper contrasts against ("the mutual
	// exclusion implementation replaces all locks with a single global
	// lock"). Used by the DWC baseline.
	SingleGlobalLock bool
	// PollingMutex replaces the paper's blocking mutex_lock with the
	// Kendo-style polling acquisition it improves upon (§4.1): a loser
	// does not depart and queue — it bumps its own clock past the current
	// minimum and retries, burning token rounds until the lock frees.
	// PollingBump is the clock increment per failed attempt (Kendo's
	// program-specific tuning knob; 0 means re-contend just past the next
	// eligible thread). Exists for the blocking-vs-polling ablation.
	PollingMutex bool
	PollingBump  int64
	// NameOverride replaces the reported runtime name (baselines built as
	// det configurations use it).
	NameOverride string

	// SegmentSize and PageSize configure the shared memory segment.
	SegmentSize int
	PageSize    int
	// GCPageBudget bounds each GC pass (0 = unlimited); GCEveryNCommits is
	// the collection cadence.
	GCPageBudget    int
	GCEveryNCommits int

	// TraceKeep bounds retained trace events (hashing always covers all).
	TraceKeep int
	// Model is the simulation cost model (ignored on untimed hosts).
	Model costmodel.Model

	// Chaos, when non-nil, arms seeded fault injection: New wraps the host
	// so every Charge is jittered and every wake delayed per the profile,
	// and each thread draws its overflow-shrink, misprediction, barrier-
	// skew, fault- and commit-delay streams from the injector. Injectors
	// are single-use — create a fresh one per runtime so replays line up.
	// Perturbations are confined to modeled time and advisory predictions,
	// so results (checksums, sync traces) are identical with chaos on or
	// off; scripts/check.sh gates on exactly that.
	Chaos *chaos.Injector

	// CommitLog, when non-nil, attaches a persistent commit log: both
	// commit sites append each published version's page diffs (sync-order
	// seq, tid, clock, per-page byte runs) to the segmented on-disk log,
	// from which internal/commitlog can Replay any version, Resume a run,
	// or Stream committed versions to a live follower (docs/commitlog.md).
	// Equivalent to calling SetCommitLog before Run. Logging never changes
	// results — checksums and sync traces are byte-identical with the log
	// on or off, and identical runs produce byte-identical log files;
	// scripts/check.sh gates both. The caller owns the log and must Close
	// it after Run to flush.
	CommitLog *commitlog.Log
}

// Default returns the full Consequence-IC configuration, all optimizations
// enabled.
func Default() Config {
	return Config{
		Policy:                clock.PolicyIC,
		FastForward:           true,
		Coarsening:            true,
		MaxChunkInit:          200_000,
		MaxChunkFloor:         60_000,
		MaxChunkCap:           2_000_000,
		CoarsenChunkThreshold: 12_000,
		AdaptiveOverflow:      true,
		OverflowBase:          10_000,
		UserspaceClockRead:    true,
		ThreadPool:            true,
		PoolCap:               64,
		Shards:                1,
		ParallelBarrier:       true,
		SpeculativeDiff:       true,
		WriteSetPrediction:    true,
		SegmentSize:           1 << 24,
		// GCPageBudget models the single-threaded Conversion collector: a
		// bounded reclaim per pass, so programs that churn pages faster
		// than one collector thread can fold them retain versions — the
		// canneal / lu_ncb memory growth of Figure 12.
		GCPageBudget:    192,
		GCEveryNCommits: 16,
		TraceKeep:       4096,
		Model:           costmodel.Default(),
	}
}

// checkpointInterval is the number of sync-trace events between
// rolling-hash checkpoints (trace.Checkpoint). Checkpoints are cheap
// in-memory snapshots of the global and per-thread hashes; with a run
// journal attached they are also persisted, letting conseq-diff localize a
// divergence in O(log n) hash probes. Journal bytes depend on it.
const checkpointInterval = 256

// EnableScaleOut selects the scale-out scheduler (Config.Shards,
// docs/scheduler.md) for a run with the given thread count: shards-way
// per-shard granting, with the worker pool pre-spawned to the thread
// count. A shards value below 2 leaves the configuration untouched — the
// single-token scheduler.
func (c *Config) EnableScaleOut(shards, threads int) {
	if shards < 2 {
		return
	}
	c.Shards = shards
	c.PoolPrespawn = threads
}

// Hooks receives token-serialized notifications of runtime events; the LRC
// propagation study (internal/lrc, Figure 16) plugs in here. All methods
// are invoked with the global token held, so implementations need no
// locking and see the deterministic total order.
type Hooks interface {
	// OnAcquire fires when tid completes an acquire-flavoured operation on
	// a sync object (lock acquisition, cond wakeup, barrier exit, join,
	// child start).
	OnAcquire(tid int, obj uint64)
	// OnRelease fires when tid performs a release-flavoured operation
	// (unlock, signal/broadcast, barrier entry, spawn, exit).
	OnRelease(tid int, obj uint64)
	// OnCommit fires after tid commits version v (nil if the commit had no
	// changed pages).
	OnCommit(tid int, v *mem.Version)
	// OnUpdate fires after tid imports remote versions up to `to`.
	OnUpdate(tid int, to int64)
	// OnSpawn fires when parent creates child (the fork copies the
	// parent's view wholesale).
	OnSpawn(parent, child int)
}

// Runtime is one deterministic execution context. Create with New, use
// once via Run.
type Runtime struct {
	cfg     Config
	h       host.Host
	timed   bool
	arb     *clock.Arbiter
	seg     *mem.Segment
	rec     *trace.Recorder
	hooks   Hooks
	obs     *obs.Observer
	journal *journal.Writer
	clog    *commitlog.Log

	mu      sync.Mutex // guards threads map, pool and workers
	threads map[int]*Thread
	pool    []*mem.Workspace
	// workers is the parked-worker free list (Shards >= 2), kept sorted by
	// free-list key ascending; spawns adopt from the front (popWorker).
	// Mutations are token-serialized (spawn adopts, exit parks, the last
	// exit drains) — the list order, and therefore which worker a spawn
	// adopts, is replay-stable.
	workers   []*worker
	workerSeq int

	// shardSet is the per-shard granting bookkeeping. It is non-nil
	// exactly when cfg.Shards >= 2, and every scale-out branch tests it.
	shardSet *clock.ShardSet

	// diagMu guards heldLocks: per-tid held mutex ids for failure
	// diagnostics (RuntimeError, DumpState). Ownership changes are
	// token-serialized, but diagnostic readers run on other goroutines.
	diagMu    sync.Mutex
	heldLocks map[int]map[uint64]bool

	// token-serialized state (mutated only while holding the token)
	nextTid      int
	lastCoordTid int
	commitCount  int64
	globalMutex  *dMutex // all mutexes alias here when SingleGlobalLock

	// commitSerialNS accumulates the time charged inside token-held serial
	// commit phases (BeginCommit charges only — merge and speculation are
	// excluded). Atomic so a live metrics scrape can read it mid-run.
	commitSerialNS atomic.Int64

	started bool
	agg     aggStats
	aggMu   sync.Mutex
}

type aggStats struct {
	api.RunStats
}

// New creates a runtime on the given host.
func New(cfg Config, h host.Host) (*Runtime, error) {
	if cfg.SegmentSize <= 0 {
		return nil, fmt.Errorf("det: segment size must be positive")
	}
	if cfg.Coarsening && cfg.StaticLevel == 1 {
		return nil, fmt.Errorf("det: static coarsening level 1 is meaningless (use 0 for adaptive or >= 2)")
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("det: negative shard count %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.PoolPrespawn < 0 {
		return nil, fmt.Errorf("det: negative prespawn count %d", cfg.PoolPrespawn)
	}
	if cfg.Shards >= 2 {
		if cfg.Policy != clock.PolicyIC {
			return nil, fmt.Errorf("det: Shards >= 2 requires PolicyIC (round-robin has no clock domain to shard)")
		}
		if cfg.PoolCap <= 0 {
			return nil, fmt.Errorf("det: Shards >= 2 requires a positive PoolCap")
		}
	} else if cfg.PoolPrespawn > 0 {
		return nil, fmt.Errorf("det: PoolPrespawn requires Shards >= 2 (got %d)", cfg.Shards)
	}
	seg, err := mem.NewSegment(mem.SegmentConfig{
		Name:         "heap",
		Size:         cfg.SegmentSize,
		PageSize:     cfg.PageSize,
		GCPageBudget: cfg.GCPageBudget,
	})
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		cfg:          cfg,
		h:            chaos.WrapHost(h, cfg.Chaos),
		timed:        h.Timed(),
		arb:          clock.New(cfg.Policy, cfg.FastForward),
		seg:          seg,
		rec:          trace.New(cfg.TraceKeep),
		threads:      make(map[int]*Thread),
		lastCoordTid: -1,
	}
	rt.rec.SetCheckpointInterval(checkpointInterval)
	if cfg.SingleGlobalLock {
		rt.globalMutex = &dMutex{id: 1, owner: -1}
	}
	if cfg.Shards >= 2 {
		rt.shardSet = clock.NewShardSet(cfg.Shards)
		rt.arb.EnableShardGrants(cfg.Shards)
	}
	if cfg.CommitLog != nil {
		if err := rt.SetCommitLog(cfg.CommitLog); err != nil {
			return nil, err
		}
	}
	return rt, nil
}

// SetHooks installs event hooks; must be called before Run.
func (rt *Runtime) SetHooks(h Hooks) {
	if rt.started {
		panic("det: SetHooks after Run")
	}
	rt.hooks = h
}

// SetObserver attaches an observability layer; must be called before Run
// (pass nil to detach). Attaching registers func gauges that subsume the
// pre-existing ad-hoc counters — the memory substrate's Segment.Stats,
// the arbiter's Arbiter.Stats, and the runtime's own aggregates — under
// the observer's single snapshot API, and makes every thread record
// phase spans into its timeline lane. An attached observer never changes
// runtime behaviour: sync order, logical clocks, memory state and
// RunStats are identical with and without it (asserted by
// TestObserverDoesNotPerturbDeterminism).
func (rt *Runtime) SetObserver(o *obs.Observer) {
	if rt.started {
		panic("det: SetObserver after Run")
	}
	rt.obs = o
	if o == nil {
		return
	}
	r := o.Registry()
	memFunc := func(f func(mem.Stats) int64) func() int64 {
		return func() int64 { return f(rt.seg.Stats()) }
	}
	r.Func("mem_faults", memFunc(func(s mem.Stats) int64 { return s.Faults }))
	r.Func("mem_versions", memFunc(func(s mem.Stats) int64 { return s.Versions }))
	r.Func("mem_committed_pages", memFunc(func(s mem.Stats) int64 { return s.CommittedPages }))
	r.Func("mem_merged_pages", memFunc(func(s mem.Stats) int64 { return s.MergedPages }))
	r.Func("mem_diff_bytes", memFunc(func(s mem.Stats) int64 { return s.DiffBytes }))
	r.Func("mem_pulled_pages", memFunc(func(s mem.Stats) int64 { return s.PulledPages }))
	r.Func("mem_spec_diff_hits", memFunc(func(s mem.Stats) int64 { return s.SpecDiffHits }))
	r.Func("mem_spec_diff_misses", memFunc(func(s mem.Stats) int64 { return s.SpecDiffMisses }))
	r.Func("mem_prefetch_hits", memFunc(func(s mem.Stats) int64 { return s.PrefetchHits }))
	r.Func("mem_prefetch_misses", memFunc(func(s mem.Stats) int64 { return s.PrefetchMisses }))
	r.Func("mem_prefetch_wasted", memFunc(func(s mem.Stats) int64 { return s.PrefetchWasted }))
	r.Func("mem_commit_serial_ns", rt.commitSerialNS.Load)
	r.Func("mem_gc_runs", memFunc(func(s mem.Stats) int64 { return s.GCRuns }))
	r.Func("mem_gc_reclaimed_pages", memFunc(func(s mem.Stats) int64 { return s.GCReclaimedPages }))
	r.Func("mem_cur_pages", memFunc(func(s mem.Stats) int64 { return s.CurPages }))
	r.Func("mem_peak_pages", memFunc(func(s mem.Stats) int64 { return s.PeakPages }))
	arbFunc := func(f func(clock.Stats) int64) func() int64 {
		return func() int64 { return f(rt.arb.Stats()) }
	}
	r.Func("clock_token_grants", arbFunc(func(s clock.Stats) int64 { return s.Grants }))
	r.Func("clock_departs", arbFunc(func(s clock.Stats) int64 { return s.Departs }))
	r.Func("clock_fast_forwards", arbFunc(func(s clock.Stats) int64 { return s.FastForwards }))
	r.Func("clock_fast_forward_skip", arbFunc(func(s clock.Stats) int64 { return s.FastForwardSkip }))
	if ss := rt.shardSet; ss != nil {
		ssFunc := func(f func(clock.ShardStats) int64) func() int64 {
			return func() int64 { return f(ss.Stats()) }
		}
		r.Func("clock_shard_local_reacquires", ssFunc(func(s clock.ShardStats) int64 { return s.Locals }))
		r.Func("clock_shard_transfers", ssFunc(func(s clock.ShardStats) int64 { return s.Transfers }))
		r.Func("clock_shard_merges", ssFunc(func(s clock.ShardStats) int64 { return s.Merges }))
		for i := 0; i < ss.Shards(); i++ {
			sh := i
			r.Func("clock_shard_grants", func() int64 { return ss.Stats().Grants[sh] }, obs.L("shard", sh))
		}
		// Virtual-time gauges: per-shard token-held busy time and frontier,
		// plus the cross-shard edges' bucket. The analyzer divides busy by
		// wall for per-shard arbiter utilization and the grant-parallelism
		// metric.
		for i := 0; i < ss.Shards(); i++ {
			sh := i
			r.Func("clock_shard_busy_ns", func() int64 { b, _ := ss.BusyNS(); return b[sh] }, obs.L("shard", sh))
			r.Func("clock_shard_frontier_ns", func() int64 { return ss.FrontierNS(sh) }, obs.L("shard", sh))
		}
		r.Func("clock_global_edge_busy_ns", func() int64 { _, g := ss.BusyNS(); return g })
	}
	aggFunc := func(f func(api.RunStats) int64) func() int64 {
		return func() int64 {
			rt.aggMu.Lock()
			defer rt.aggMu.Unlock()
			return f(rt.agg.RunStats)
		}
	}
	if in := rt.cfg.Chaos; in != nil {
		chFunc := func(f func(chaos.Stats) int64) func() int64 {
			return func() int64 { return f(in.Stats()) }
		}
		r.Func("chaos_charge_jitter_events", chFunc(func(s chaos.Stats) int64 { return s.ChargeJitterEvents }))
		r.Func("chaos_charge_jitter_ns", chFunc(func(s chaos.Stats) int64 { return s.ChargeJitterNS }))
		r.Func("chaos_wake_delays", chFunc(func(s chaos.Stats) int64 { return s.WakeDelays }))
		r.Func("chaos_wake_delay_ns", chFunc(func(s chaos.Stats) int64 { return s.WakeDelayNS }))
		r.Func("chaos_overflow_shrinks", chFunc(func(s chaos.Stats) int64 { return s.OverflowShrinks }))
		r.Func("chaos_mispredict_drops", chFunc(func(s chaos.Stats) int64 { return s.MispredictDrops }))
		r.Func("chaos_barrier_skews", chFunc(func(s chaos.Stats) int64 { return s.BarrierSkews }))
		r.Func("chaos_barrier_skew_ns", chFunc(func(s chaos.Stats) int64 { return s.BarrierSkewNS }))
		r.Func("chaos_fault_delays", chFunc(func(s chaos.Stats) int64 { return s.FaultDelays }))
		r.Func("chaos_fault_delay_ns", chFunc(func(s chaos.Stats) int64 { return s.FaultDelayNS }))
		r.Func("chaos_commit_delays", chFunc(func(s chaos.Stats) int64 { return s.CommitDelays }))
		r.Func("chaos_commit_delay_ns", chFunc(func(s chaos.Stats) int64 { return s.CommitDelayNS }))
	}
	r.Func("det_threads_spawned", aggFunc(func(s api.RunStats) int64 { return s.ThreadsSpawned }))
	r.Func("det_threads_reused", aggFunc(func(s api.RunStats) int64 { return s.ThreadsReused }))
	r.Func("det_local_work_ns", aggFunc(func(s api.RunStats) int64 { return s.LocalWorkNS }))
	r.Func("det_determ_wait_ns", aggFunc(func(s api.RunStats) int64 { return s.DetermWaitNS }))
	r.Func("det_barrier_wait_ns", aggFunc(func(s api.RunStats) int64 { return s.BarrierWaitNS }))
	r.Func("det_commit_ns", aggFunc(func(s api.RunStats) int64 { return s.CommitNS }))
	rt.registerJournalMetrics()
	rt.registerCommitLogMetrics()
}

// SetJournal attaches a run journal; must be called before Run (nil
// detaches). Every sync-trace event and interval checkpoint streams to the
// writer through the trace sink, and both commit sites record each
// published version's page-set with per-page content hashes
// (docs/divergence.md). Journaling never changes results — checksums and
// sync traces are byte-identical with the journal on or off, which
// scripts/check.sh gates. The caller owns the writer and must Close it
// after Run to flush.
func (rt *Runtime) SetJournal(w *journal.Writer) {
	if rt.started {
		panic("det: SetJournal after Run")
	}
	rt.journal = w
	if w == nil {
		rt.rec.SetSink(nil)
		return
	}
	rt.rec.SetSink(w)
	rt.registerJournalMetrics()
}

// registerJournalMetrics exposes journal_* func gauges once both an
// observer and a journal are attached (either attach order works:
// SetObserver and SetJournal both call this).
func (rt *Runtime) registerJournalMetrics() {
	if rt.obs == nil || rt.journal == nil {
		return
	}
	r := rt.obs.Registry()
	jFunc := func(f func(journal.Stats) int64) func() int64 {
		return func() int64 { return f(rt.journal.Stats()) }
	}
	r.Func("journal_events", jFunc(func(s journal.Stats) int64 { return s.Events }))
	r.Func("journal_commits", jFunc(func(s journal.Stats) int64 { return s.Commits }))
	r.Func("journal_checkpoints", jFunc(func(s journal.Stats) int64 { return s.Checkpoints }))
	r.Func("journal_bytes", jFunc(func(s journal.Stats) int64 { return s.Bytes }))
	r.Func("journal_flush_stalls", jFunc(func(s journal.Stats) int64 { return s.FlushStalls }))
}

// SetCommitLog attaches a persistent commit log; must be called before
// Run. The log is bound to the runtime's memory geometry (Begin) and from
// then on both commit sites append each published version's page diffs at
// its sync-order position (the same AtSeq interleave contract the run
// journal uses, so the two artifacts cross-reference record for record).
// With a chaos injector armed, the log's write path is perturbed by the
// injector's logstall stream — real-time-only stalls that exercise
// backpressure without touching results. The caller owns the log and must
// Close it after Run to flush and write the end trailer.
func (rt *Runtime) SetCommitLog(l *commitlog.Log) error {
	if rt.started {
		panic("det: SetCommitLog after Run")
	}
	rt.clog = l
	if l == nil {
		return nil
	}
	if rt.cfg.Chaos != nil {
		cs := rt.cfg.Chaos.LogStream()
		l.SetPerturb(func() int64 { return cs.LogStall() })
	}
	if err := l.Begin(rt.seg.PageSize(), rt.seg.NumPages()); err != nil {
		return err
	}
	rt.registerCommitLogMetrics()
	return nil
}

// registerCommitLogMetrics exposes commitlog_* func gauges once both an
// observer and a commit log are attached (either attach order works:
// SetObserver and SetCommitLog both call this).
func (rt *Runtime) registerCommitLogMetrics() {
	if rt.obs == nil || rt.clog == nil {
		return
	}
	r := rt.obs.Registry()
	cFunc := func(f func(commitlog.Stats) int64) func() int64 {
		return func() int64 { return f(rt.clog.Stats()) }
	}
	r.Func("commitlog_commits", cFunc(func(s commitlog.Stats) int64 { return s.Commits }))
	r.Func("commitlog_snapshots", cFunc(func(s commitlog.Stats) int64 { return s.Snapshots }))
	r.Func("commitlog_segments", cFunc(func(s commitlog.Stats) int64 { return s.Segments }))
	r.Func("commitlog_rolls", cFunc(func(s commitlog.Stats) int64 { return s.Rolls }))
	r.Func("commitlog_truncated", cFunc(func(s commitlog.Stats) int64 { return s.Truncated }))
	r.Func("commitlog_bytes", cFunc(func(s commitlog.Stats) int64 { return s.Bytes }))
	r.Func("commitlog_append_stalls", cFunc(func(s commitlog.Stats) int64 { return s.AppendStalls }))
}

// Observer returns the attached observability layer, or nil.
func (rt *Runtime) Observer() *obs.Observer { return rt.obs }

// Name implements api.Runtime.
func (rt *Runtime) Name() string {
	if rt.cfg.NameOverride != "" {
		return rt.cfg.NameOverride
	}
	return "consequence-" + map[clock.Policy]string{clock.PolicyIC: "ic", clock.PolicyRR: "rr"}[rt.cfg.Policy]
}

// Segment exposes the shared segment (tests and the harness read it).
func (rt *Runtime) Segment() *mem.Segment { return rt.seg }

// Trace exposes the sync-order trace recorder.
func (rt *Runtime) Trace() *trace.Recorder { return rt.rec }

// Run implements api.Runtime: executes root as thread 0 and waits for all
// threads.
func (rt *Runtime) Run(root func(api.T)) error {
	if rt.started {
		panic("det: Runtime is single-use")
	}
	rt.started = true
	t, err := rt.newThread(0, 0)
	if err != nil {
		return err
	}
	rt.nextTid = 1
	// Pre-spawned workers start (and pay their creation cost) on their own
	// timelines before the root thread runs, so a program's first spawns
	// can adopt instead of forking. No token exists yet: the list build is
	// single-threaded and its order (creation order) is deterministic.
	prespawn := rt.cfg.PoolPrespawn
	if prespawn > rt.cfg.PoolCap {
		prespawn = rt.cfg.PoolCap
	}
	for i := 0; i < prespawn; i++ {
		rt.spawnWorker(nil, nil, nil)
	}
	rt.h.Go("t0", nil, func(b host.Binding) {
		t.start(b)
		rt.threadMain(t, root)
	})
	return rt.h.Run()
}

// newThread allocates thread bookkeeping (workspace, arbiter registration).
// Called before the thread's host goroutine starts; for children this runs
// under the parent's token, making tids and registration deterministic.
func (rt *Runtime) newThread(tid int, startClock int64) (*Thread, error) {
	ws, err := rt.seg.Snapshot(tid)
	if err != nil {
		return nil, err
	}
	t := rt.attachThread(tid, startClock, ws)
	return t, nil
}

func (rt *Runtime) attachThread(tid int, startClock int64, ws *mem.Workspace) *Thread {
	t := &Thread{
		rt:       rt,
		tid:      tid,
		ws:       ws,
		icount:   startClock,
		curShard: -1,
		overflow: clock.NewOverflow(rt.cfg.OverflowBase, rt.cfg.AdaptiveOverflow),
	}
	if rt.shardSet != nil {
		// Home shard: where the thread's exit (and any join on it) is
		// arbitrated until a shardable op moves its domain. tid-derived, so
		// a joiner can compute it without racing the running child.
		t.domShard = tid % rt.cfg.Shards
	}
	t.coarse.maxChunk = rt.cfg.MaxChunkInit
	if in := rt.cfg.Chaos; in != nil {
		// Per-thread perturbation streams, keyed (seed, subsystem, tid):
		// each subsystem draws independently, so one consuming more draws
		// never shifts another's sequence. Re-arming a pooled workspace's
		// fault perturb on reuse retargets it to the new tid's stream.
		t.chaosT = in.ThreadStream(tid)
		t.overflow.SetPerturb(in.OverflowStream(tid).OverflowInterval)
		ws.SetFaultPerturb(in.FaultStream(tid).FaultDelay)
	}
	if rt.cfg.WriteSetPrediction {
		// One history table per thread, like the unlock estimators: tables
		// are consulted only from the owning thread and trained only on its
		// own deterministic chunk history, so no cross-thread state exists
		// to perturb. A pooled workspace keeps SetPredict across Rebind;
		// re-arming is idempotent.
		t.pred = predict.New()
		ws.SetPredict(true)
		if in := rt.cfg.Chaos; in != nil {
			// Forced mispredictions: drop predicted pages per the profile.
			// Safe because prediction is advisory by contract.
			t.pred.SetPerturb(in.PredictStream(tid).FilterPrediction)
		}
	}
	if o := rt.obs; o != nil {
		// Per-thread instruments, cached so the hot paths pay one nil
		// check (lane) or one atomic add (counters), never a registry
		// lookup.
		r := o.Registry()
		t.lane = o.Lane(tid)
		tl := obs.L("tid", tid)
		t.mSyncOps = r.Counter("det_sync_ops", tl)
		t.mCoarsenedOps = r.Counter("det_coarsened_ops", tl)
		t.mCommits = r.Counter("det_commits", tl)
		t.hChunk = r.Histogram("det_chunk_instructions", tl)
		t.mLockAcq = make(map[uint64]*obs.Counter)
	}
	rt.mu.Lock()
	rt.threads[tid] = t
	rt.mu.Unlock()
	rt.deliverFrom(nil, rt.arb.Register(tid, startClock))
	return t
}

func (rt *Runtime) threadMain(t *Thread, fn func(api.T)) {
	fn(t)
	t.exit()
}

// lookup returns the thread with the given tid.
func (rt *Runtime) lookup(tid int) *Thread {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	th, ok := rt.threads[tid]
	if !ok {
		panic(&RuntimeError{
			Code: "unknown-tid", Tid: -1, Op: "lookup",
			Detail: fmt.Sprintf("token grant for unknown tid %d", tid),
		})
	}
	return th
}

// deliverFrom wakes the thread granted the token by an arbiter operation.
// waker is the binding performing the wake (nil only during setup, when no
// grant can occur). A host-level double-wake panic — a wake sent to a
// thread that already holds its wake permit, i.e. a corrupted handoff — is
// rewrapped as a structured RuntimeError naming the target's state.
func (rt *Runtime) deliverFrom(waker host.Binding, grant int) {
	if grant == clock.NoGrant {
		return
	}
	target := rt.lookup(grant)
	if waker == nil {
		panic(&RuntimeError{
			Code: "self-grant", Tid: -1, Op: "deliver",
			Detail: "token grant before any thread is running",
		})
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*RuntimeError); ok {
				panic(r)
			}
			panic(&RuntimeError{
				Code:      "double-wake",
				Tid:       target.tid,
				Clock:     target.diagClock.Load(),
				Phase:     diagNames[target.diagPhase.Load()],
				Op:        "wake",
				HeldLocks: rt.heldLocksOf(target.tid),
				Detail:    fmt.Sprintf("waking tid %d which already holds a wake permit: %v", target.tid, r),
			})
		}
	}()
	if rt.shardSet != nil && rt.timed {
		if aw, ok := waker.(host.AnchoredWaker); ok {
			// Anchor the wake at the granted op's scope frontier instead of
			// the waker's own clock: the target's sub-token became free at
			// that instant, so ops granted in different shards resume in
			// overlapping virtual time. The frontier was published before
			// the arbiter produced this grant (releaseTokenRaw), and both
			// reads are token-serialized, so the anchor is deterministic.
			aw.WakeFrom(target.b, rt.shardSet.Frontier(rt.arb.Scope(grant)))
			return
		}
	}
	waker.Wake(target.b)
}

// Checksum implements api.Runtime: FNV-1a over the final committed state.
func (rt *Runtime) Checksum() uint64 {
	h := fnv.New64a()
	buf := make([]byte, rt.seg.PageSize())
	at := rt.seg.Head()
	for pg := 0; pg < rt.seg.NumPages(); pg++ {
		rt.seg.ReadCommitted(buf, pg*rt.seg.PageSize(), at)
		h.Write(buf)
	}
	return h.Sum64()
}

// Stats implements api.Runtime.
func (rt *Runtime) Stats() api.RunStats {
	rt.aggMu.Lock()
	s := rt.agg.RunStats
	rt.aggMu.Unlock()
	ms := rt.seg.Stats()
	s.Faults = ms.Faults
	s.Versions = ms.Versions
	s.CommittedPages = ms.CommittedPages
	s.MergedPages = ms.MergedPages
	s.PulledPages = ms.PulledPages
	s.PeakPages = ms.PeakPages
	s.PrefetchHits = ms.PrefetchHits
	s.PrefetchMisses = ms.PrefetchMisses
	s.PrefetchWasted = ms.PrefetchWasted
	s.TokenGrants = rt.arb.Stats().Grants
	return s
}

// aggregate folds a finished thread's accumulators into the runtime totals.
// Called with the token held (exit is a sync op), so it is serialized, but
// Stats may read concurrently — hence aggMu.
func (rt *Runtime) aggregate(t *Thread) {
	rt.aggMu.Lock()
	defer rt.aggMu.Unlock()
	a := &rt.agg.RunStats
	// Commit, merge and speculative diffing are distinct trace phases but
	// one RunStats category, preserving the seed's Figure 15 breakdown;
	// likewise prefetch is page-population time and folds into Fault, and
	// spawn, handoff and fast-forward are the scheduler refinement of Lib.
	commitNS := t.bd[obs.PhaseCommit] + t.bd[obs.PhaseMerge] + t.bd[obs.PhaseSpecDiff]
	faultNS := t.bd[obs.PhaseFault] + t.bd[obs.PhasePrefetch]
	libNS := t.bd[obs.PhaseLib] + t.bd[obs.PhaseSpawn] + t.bd[obs.PhaseHandoff] + t.bd[obs.PhaseFastForward]
	a.LocalWorkNS += t.bd[obs.PhaseCompute]
	a.DetermWaitNS += t.bd[obs.PhaseTokenWait]
	a.BarrierWaitNS += t.bd[obs.PhaseBarrierWait]
	a.CommitNS += commitNS
	a.FaultNS += faultNS
	a.LibNS += libNS
	a.SyncOps += t.syncOps
	a.CoarsenedOps += t.coarsenedOps
	a.PerThread = append(a.PerThread, api.ThreadTime{
		Tid:         t.tid,
		LocalWork:   t.bd[obs.PhaseCompute],
		DetermWait:  t.bd[obs.PhaseTokenWait],
		BarrierWait: t.bd[obs.PhaseBarrierWait],
		Commit:      commitNS,
		Fault:       faultNS,
		Lib:         libNS,
	})
	if now := t.b.Now(); now > a.WallNS {
		a.WallNS = now
	}
}

// noteSpawn records spawn accounting (token-held).
func (rt *Runtime) noteSpawn(reused bool) {
	rt.aggMu.Lock()
	defer rt.aggMu.Unlock()
	rt.agg.ThreadsSpawned++
	if reused {
		rt.agg.ThreadsReused++
	}
}

var _ api.Runtime = (*Runtime)(nil)
