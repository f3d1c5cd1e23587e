package det_test

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/clock"
	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/host/realhost"
	"repro/internal/host/simhost"
	"repro/internal/trace"
)

// scaleOutCfg is cfg() with the scheduler scale-out trio enabled
// (docs/scheduler.md): sharded arbitration, the worker pool pre-spawned to
// threads, and lazy fast-forward.
func scaleOutCfg(shards, threads int) det.Config {
	c := cfg()
	c.EnableScaleOut(shards, threads)
	return c
}

// The scale-out trio must not change a single observable: same memory
// checksum, same synchronization trace (order AND clocks), on every host.
// Only wall time may move.
func TestScaleOutMatchesLegacy(t *testing.T) {
	progs := map[string]func(api.T){
		"counter": counterProg(4, 20),
		"racy":    racyProg(4),
	}
	for pname, prog := range progs {
		t.Run(pname, func(t *testing.T) {
			for _, hm := range allHosts() {
				t.Run(hm.name, func(t *testing.T) {
					sum0, rec0, _ := run(t, cfg(), hm.mk(), prog)
					sum1, rec1, rt1 := run(t, scaleOutCfg(4, 4), hm.mk(), prog)
					if sum1 != sum0 {
						t.Errorf("scale-out checksum %x != legacy %x", sum1, sum0)
					}
					if h0, h1 := rec0.Hash(), rec1.Hash(); h1 != h0 {
						t.Errorf("scale-out trace hash %x != legacy %x\n%s",
							h1, h0, trace.Diff(rec0, rec1))
					}
					// Adoption is guaranteed on every host: the started-gate
					// lets popWorker hand out even a pre-spawned worker whose
					// goroutine has not reached its first park (the adopter
					// assigns next under rt.mu and skips the wake; the
					// worker's startup sees the assignment and skips the
					// park), so with the pool pre-spawned to the thread count
					// no spawn ever falls back to a fresh fork.
					if reused := rt1.Stats().ThreadsReused; reused == 0 {
						t.Error("worker pool never engaged: ThreadsReused = 0")
					}
				})
			}
		})
	}
}

// Checksum and trace must be invariant across the whole shard matrix — the
// in-process version of the scripts/check.sh golden gate.
func TestShardMatrixDeterminism(t *testing.T) {
	prog := counterProg(4, 20)
	sum0, rec0, _ := run(t, cfg(), simhost.New(costmodel.Default()), prog)
	for _, shards := range []int{2, 4, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sum, rec, _ := run(t, scaleOutCfg(shards, 4), simhost.New(costmodel.Default()), prog)
			if sum != sum0 {
				t.Errorf("checksum %x != shards=1 %x", sum, sum0)
			}
			if rec.Hash() != rec0.Hash() {
				t.Errorf("trace hash %x != shards=1 %x\n%s",
					rec.Hash(), rec0.Hash(), trace.Diff(rec0, rec))
			}
		})
	}
}

// EnableScaleOut below 2 shards is a no-op by contract: the config stays
// the legacy one, and a run reproduces the legacy time model bit for bit —
// not just the checksum but every RunStats field, including WallNS.
func TestShardsOneIsLegacyTimeModel(t *testing.T) {
	c := cfg()
	c.EnableScaleOut(1, 8)
	if !reflect.DeepEqual(c, cfg()) {
		t.Fatalf("EnableScaleOut(1, 8) changed the config:\n got %+v\nwant %+v", c, cfg())
	}
	prog := counterProg(4, 20)
	_, _, rt0 := run(t, cfg(), simhost.New(costmodel.Default()), prog)
	_, _, rt1 := run(t, c, simhost.New(costmodel.Default()), prog)
	s0, s1 := rt0.Stats(), rt1.Stats()
	if !reflect.DeepEqual(s0, s1) {
		t.Errorf("RunStats diverged at Shards=1:\n got %+v\nwant %+v", s1, s0)
	}
}

// det.New validates the scheduler selection: a negative shard count, the
// scale-out scheduler under round-robin (no clock domain to shard) or
// without pool capacity, and pre-spawned workers without the scale-out
// scheduler are configuration errors, not silently ignored knobs.
func TestNewValidatesScaleOut(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*det.Config)
		ok   bool
	}{
		{"negative-shards", func(c *det.Config) { c.Shards = -1 }, false},
		{"shards-rr", func(c *det.Config) { c.Shards = 2; c.Policy = clock.PolicyRR }, false},
		{"scale-out-rr", func(c *det.Config) { c.Policy = clock.PolicyRR; c.EnableScaleOut(4, 4) }, false},
		{"shards-no-pool-cap", func(c *det.Config) { c.Shards = 2; c.PoolCap = 0 }, false},
		{"prespawn-shards-1", func(c *det.Config) { c.PoolPrespawn = 2 }, false},
		{"prespawn-shards-0", func(c *det.Config) { c.Shards = 0; c.PoolPrespawn = 2 }, false},
		{"negative-prespawn", func(c *det.Config) { c.EnableScaleOut(2, -1) }, false},
		{"shards-0", func(c *det.Config) { c.Shards = 0 }, true},
		{"shards-rr-1", func(c *det.Config) { c.Policy = clock.PolicyRR }, true},
		{"shards-2-no-prespawn", func(c *det.Config) { c.Shards = 2 }, true},
		{"scale-out", func(c *det.Config) { c.EnableScaleOut(8, 4) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg()
			tc.mod(&c)
			_, err := det.New(c, simhost.New(costmodel.Default()))
			if (err == nil) != tc.ok {
				t.Errorf("det.New error = %v, want ok = %v", err, tc.ok)
			}
		})
	}
}

// Shards: 0 is the single-token scheduler, exactly like Shards: 1 — same
// checksum, same sync trace, same modeled RunStats to the nanosecond.
func TestShardsZeroIsShardsOne(t *testing.T) {
	for name, prog := range map[string]func(api.T){
		"counter":  counterProg(4, 20),
		"forkjoin": forkJoinRoundsProg(3, 4),
	} {
		t.Run(name, func(t *testing.T) {
			c0 := cfg()
			c0.Shards = 0
			sum0, rec0, rt0 := run(t, c0, simhost.New(costmodel.Default()), prog)
			sum1, rec1, rt1 := run(t, cfg(), simhost.New(costmodel.Default()), prog)
			if sum0 != sum1 {
				t.Errorf("checksum %x at Shards=0 != %x at Shards=1", sum0, sum1)
			}
			if rec0.Hash() != rec1.Hash() {
				t.Errorf("trace hash %x at Shards=0 != %x at Shards=1\n%s",
					rec0.Hash(), rec1.Hash(), trace.Diff(rec1, rec0))
			}
			if s0, s1 := rt0.Stats(), rt1.Stats(); !reflect.DeepEqual(s0, s1) {
				t.Errorf("RunStats diverged:\n Shards=0 %+v\n Shards=1 %+v", s0, s1)
			}
		})
	}
}

// Pre-spawned workers that never get adopted must be drained when the run
// ends: on the simulation host a leaked parked worker is a deadlock error
// from Run, so a nil error is the drain proof.
func TestPrespawnedWorkersDrain(t *testing.T) {
	c := scaleOutCfg(4, 8) // 8 parked workers, program spawns only 2
	sum0, _, _ := run(t, cfg(), simhost.New(costmodel.Default()), counterProg(2, 10))
	sum1, _, _ := run(t, c, simhost.New(costmodel.Default()), counterProg(2, 10))
	if sum1 != sum0 {
		t.Errorf("checksum %x != legacy %x", sum1, sum0)
	}
}

// Started-gate regression (ISSUE 7): on the real host, spawns race the
// pre-spawned workers' goroutine startup — before the gate, popWorker
// skipped workers whose binding was unset and the spawn fell back to a
// fresh fork. With the gate, every spawn must adopt a pooled worker when
// the pool was pre-spawned to cover them, no matter how early the spawns
// happen, and results must match the legacy runtime byte for byte.
func TestStartedGateRecoversPrespawnedWorkers(t *testing.T) {
	prog := counterProg(4, 5) // root spawns immediately: maximal startup race
	sum0, rec0, _ := run(t, cfg(), realhost.New(0, 0), prog)
	for i := 0; i < 20; i++ { // the race is wall-clock timing: many attempts
		sum1, rec1, rt1 := run(t, scaleOutCfg(2, 4), realhost.New(0, 0), prog)
		if sum1 != sum0 {
			t.Fatalf("attempt %d: checksum %x != legacy %x", i, sum1, sum0)
		}
		if rec1.Hash() != rec0.Hash() {
			t.Fatalf("attempt %d: trace hash %x != legacy %x\n%s",
				i, rec1.Hash(), rec0.Hash(), trace.Diff(rec0, rec1))
		}
		st := rt1.Stats()
		if st.ThreadsReused != st.ThreadsSpawned {
			t.Fatalf("attempt %d: %d of %d spawns adopted a pooled worker; the started-gate must recover them all",
				i, st.ThreadsReused, st.ThreadsSpawned)
		}
	}
}

// On the real host, parked pool workers declare their blocks idle
// (host.IdleReasonPrefix), so an armed stall watchdog must stay quiet
// through a pooled run even though workers sit blocked between threads.
func TestWorkerPoolQuietUnderWatchdog(t *testing.T) {
	h := realhost.New(0, 0)
	var fires atomic.Int32
	h.SetWatchdog(5*time.Second, func(string) { fires.Add(1) })
	sum0, _, _ := run(t, cfg(), realhost.New(0, 0), counterProg(4, 20))
	sum1, _, _ := run(t, scaleOutCfg(4, 4), h, counterProg(4, 20))
	if sum1 != sum0 {
		t.Errorf("checksum %x != legacy %x", sum1, sum0)
	}
	if n := fires.Load(); n != 0 {
		t.Errorf("watchdog fired %d times during a pooled run", n)
	}
}

// benchRT builds a fresh sim-hosted runtime for the scheduler benchmarks.
func benchRT(b *testing.B, c det.Config) *det.Runtime {
	b.Helper()
	c.SegmentSize = 1 << 20
	rt, err := det.New(c, simhost.New(costmodel.Default()))
	if err != nil {
		b.Fatal(err)
	}
	return rt
}

// BenchmarkTokenHandoff measures the host-level cost of the token
// ping-pong: two threads alternating lock/unlock on one mutex, the
// worst case for the arbitration path. Reported per sync op.
func BenchmarkTokenHandoff(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := det.Default()
			c.EnableScaleOut(shards, 2)
			rt := benchRT(b, c)
			b.ResetTimer()
			err := rt.Run(func(t api.T) {
				m := t.NewMutex()
				h := t.Spawn(func(t api.T) {
					for i := 0; i < b.N; i++ {
						t.Lock(m)
						t.Unlock(m)
					}
				})
				for i := 0; i < b.N; i++ {
					t.Lock(m)
					t.Unlock(m)
				}
				t.Join(h)
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkForkJoin measures thread lifecycle cost: spawn a trivial child
// and join it, once per iteration — the path the worker pool exists to
// shorten. A few untimed warm-up iterations run before the clock starts,
// so the pooled side measures steady-state adoption (worker parked, view
// warm) rather than the cold first-adoption rebuild, mirroring how the
// pool is hit in a real run after start-up.
func BenchmarkForkJoin(b *testing.B) {
	for _, mode := range []struct {
		name   string
		shards int
	}{{"legacy", 1}, {"pooled", 4}} {
		b.Run(mode.name, func(b *testing.B) {
			c := det.Default()
			c.EnableScaleOut(mode.shards, 2)
			rt := benchRT(b, c)
			err := rt.Run(func(t api.T) {
				for i := 0; i < 8; i++ {
					t.Join(t.Spawn(func(t api.T) { t.Compute(100) }))
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h := t.Spawn(func(t api.T) { t.Compute(100) })
					t.Join(h)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkGrantParallel measures host-level arbitration throughput under
// per-shard granting: 4 threads ping-ponging on 4 disjoint mutexes (two
// threads per mutex), so at shards >= 4 every grant is shard-local and
// the shard count sweep exposes how much of the serial arbiter the merge
// rule actually removed. Reported per sync op.
func BenchmarkGrantParallel(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := det.Default()
			c.EnableScaleOut(shards, 8)
			rt := benchRT(b, c)
			err := rt.Run(func(t api.T) {
				ms := make([]api.Mutex, 4)
				for i := range ms {
					ms[i] = t.NewMutex()
				}
				pair := func(m api.Mutex, n int) func(api.T) {
					return func(t api.T) {
						for i := 0; i < n; i++ {
							t.Lock(m)
							t.Unlock(m)
						}
					}
				}
				// Warm the pool and the arbitration state before timing.
				for _, m := range ms {
					t.Join(t.Spawn(pair(m, 16)))
				}
				b.ResetTimer()
				hs := make([]api.Handle, 0, 8)
				for _, m := range ms {
					hs = append(hs, t.Spawn(pair(m, b.N)), t.Spawn(pair(m, b.N)))
				}
				for _, h := range hs {
					t.Join(h)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// forkJoinRoundsProg runs rounds of width-way fork/join. With the pool
// pre-spawned to fewer workers than width, the first round mixes
// pre-spawned adoptions with fresh forks, and later rounds adopt the
// workers parked by the previous round's exits — every Spawn path of
// the worker pool.
func forkJoinRoundsProg(rounds, width int) func(api.T) {
	return func(t api.T) {
		for r := 0; r < rounds; r++ {
			hs := make([]api.Handle, 0, width)
			for i := 0; i < width; i++ {
				i := i
				hs = append(hs, t.Spawn(func(t api.T) {
					t.Compute(int64(200 * (i + 1)))
					api.AddU64(t, 8*i, uint64(r+1))
				}))
			}
			for _, h := range hs {
				t.Join(h)
			}
		}
	}
}

// The scale-out scheduler's modeled time is pinned, not just its results:
// the full simulation-host RunStats — makespan, every phase total, every
// counter and each thread's breakdown — at 2 and 4 shards. The checksum
// and trace-hash goldens cannot see a charge that moves between phases
// or threads; this can. Regenerate only for an intentional time-model
// change.
func TestScaleOutModeledTimePinned(t *testing.T) {
	type tt = api.ThreadTime
	cases := []struct {
		name   string
		prog   func(api.T)
		shards int
		want   api.RunStats
	}{
		{"counter", counterProg(4, 20), 2, api.RunStats{
			WallNS: 369318, LocalWorkNS: 20158, DetermWaitNS: 738344, CommitNS: 48180, FaultNS: 18800, LibNS: 281240,
			Faults: 4, Versions: 8, CommittedPages: 8, PulledPages: 11, PeakPages: 12, PrefetchHits: 4, PrefetchMisses: 4,
			TokenGrants: 25, SyncOps: 173, CoarsenedOps: 155, ThreadsSpawned: 4, ThreadsReused: 2,
			PerThread: []tt{
				{Tid: 1, LocalWork: 5040, DetermWait: 154104, Commit: 10820, Fault: 4700, Lib: 12680},
				{Tid: 2, LocalWork: 5039, DetermWait: 174723, Commit: 11520, Fault: 4700, Lib: 11560},
				{Tid: 3, LocalWork: 5039, DetermWait: 195001, Commit: 11520, Fault: 4700, Lib: 6360},
				{Tid: 4, LocalWork: 5040, DetermWait: 92278, Commit: 11520, Fault: 4700, Lib: 6360},
				{Tid: 0, DetermWait: 122238, Commit: 2800, Lib: 244280},
			},
		}},
		{"counter", counterProg(4, 20), 4, api.RunStats{
			WallNS: 369118, LocalWorkNS: 20158, DetermWaitNS: 737384, CommitNS: 48180, FaultNS: 18800, LibNS: 281400,
			Faults: 4, Versions: 8, CommittedPages: 8, PulledPages: 11, PeakPages: 12, PrefetchHits: 4, PrefetchMisses: 4,
			TokenGrants: 25, SyncOps: 173, CoarsenedOps: 155, ThreadsSpawned: 4, ThreadsReused: 2,
			PerThread: []tt{
				{Tid: 1, LocalWork: 5040, DetermWait: 154104, Commit: 10820, Fault: 4700, Lib: 12680},
				{Tid: 2, LocalWork: 5039, DetermWait: 174523, Commit: 11520, Fault: 4700, Lib: 11560},
				{Tid: 3, LocalWork: 5039, DetermWait: 194801, Commit: 11520, Fault: 4700, Lib: 6360},
				{Tid: 4, LocalWork: 5040, DetermWait: 92078, Commit: 11520, Fault: 4700, Lib: 6360},
				{Tid: 0, DetermWait: 121878, Commit: 2800, Lib: 244440},
			},
		}},
		{"forkjoin", forkJoinRoundsProg(3, 4), 2, api.RunStats{
			WallNS: 375104, LocalWorkNS: 3024, DetermWaitNS: 594576, CommitNS: 68760, FaultNS: 42000, LibNS: 312280,
			Faults: 12, Versions: 12, CommittedPages: 12, MergedPages: 9, PulledPages: 30, PeakPages: 11, PrefetchMisses: 12,
			TokenGrants: 49, SyncOps: 37, ThreadsSpawned: 12, ThreadsReused: 10,
			PerThread: []tt{
				{Tid: 1, LocalWork: 102, DetermWait: 118318, Commit: 3980, Fault: 3500, Lib: 6680},
				{Tid: 2, LocalWork: 202, DetermWait: 127858, Commit: 4680, Fault: 3500, Lib: 5480},
				{Tid: 3, LocalWork: 302, DetermWait: 137178, Commit: 4680, Fault: 3500, Lib: 280},
				{Tid: 4, LocalWork: 402, DetermWait: 22598, Commit: 5380, Fault: 3500, Lib: 1480},
				{Tid: 5, LocalWork: 102, Commit: 4680, Fault: 3500, Lib: 5480},
				{Tid: 6, LocalWork: 202, DetermWait: 6020, Commit: 5380, Fault: 3500, Lib: 5480},
				{Tid: 7, LocalWork: 302, DetermWait: 13940, Commit: 5380, Fault: 3500, Lib: 4280},
				{Tid: 8, LocalWork: 402, DetermWait: 18260, Commit: 5380, Fault: 3500, Lib: 6680},
				{Tid: 9, LocalWork: 102, Commit: 4680, Fault: 3500, Lib: 5480},
				{Tid: 10, LocalWork: 202, DetermWait: 6020, Commit: 5380, Fault: 3500, Lib: 5480},
				{Tid: 11, LocalWork: 302, DetermWait: 13940, Commit: 5380, Fault: 3500, Lib: 4280},
				{Tid: 12, LocalWork: 402, DetermWait: 18260, Commit: 5380, Fault: 3500, Lib: 6680},
				{Tid: 0, DetermWait: 112184, Commit: 8400, Lib: 254520},
			},
		}},
		{"forkjoin", forkJoinRoundsProg(3, 4), 4, api.RunStats{
			WallNS: 375264, LocalWorkNS: 3024, DetermWaitNS: 594976, CommitNS: 68760, FaultNS: 42000, LibNS: 312440,
			Faults: 12, Versions: 12, CommittedPages: 12, MergedPages: 9, PulledPages: 30, PeakPages: 11, PrefetchMisses: 12,
			TokenGrants: 49, SyncOps: 37, ThreadsSpawned: 12, ThreadsReused: 10,
			PerThread: []tt{
				{Tid: 1, LocalWork: 102, DetermWait: 118318, Commit: 3980, Fault: 3500, Lib: 6680},
				{Tid: 2, LocalWork: 202, DetermWait: 127938, Commit: 4680, Fault: 3500, Lib: 5480},
				{Tid: 3, LocalWork: 302, DetermWait: 137338, Commit: 4680, Fault: 3500, Lib: 280},
				{Tid: 4, LocalWork: 402, DetermWait: 22758, Commit: 5380, Fault: 3500, Lib: 1480},
				{Tid: 5, LocalWork: 102, Commit: 4680, Fault: 3500, Lib: 5480},
				{Tid: 6, LocalWork: 202, DetermWait: 6020, Commit: 5380, Fault: 3500, Lib: 5480},
				{Tid: 7, LocalWork: 302, DetermWait: 13940, Commit: 5380, Fault: 3500, Lib: 4280},
				{Tid: 8, LocalWork: 402, DetermWait: 18260, Commit: 5380, Fault: 3500, Lib: 6680},
				{Tid: 9, LocalWork: 102, Commit: 4680, Fault: 3500, Lib: 5480},
				{Tid: 10, LocalWork: 202, DetermWait: 6020, Commit: 5380, Fault: 3500, Lib: 5480},
				{Tid: 11, LocalWork: 302, DetermWait: 13940, Commit: 5380, Fault: 3500, Lib: 4280},
				{Tid: 12, LocalWork: 402, DetermWait: 18260, Commit: 5380, Fault: 3500, Lib: 6680},
				{Tid: 0, DetermWait: 112184, Commit: 8400, Lib: 254680},
			},
		}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/shards=%d", tc.name, tc.shards), func(t *testing.T) {
			_, _, rt := run(t, scaleOutCfg(tc.shards, 2), simhost.New(costmodel.Default()), tc.prog)
			if got := rt.Stats(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("modeled RunStats moved:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
