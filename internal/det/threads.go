package det

import (
	"fmt"

	"repro/internal/api"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Spawn implements api.T: create a new deterministic thread. Thread
// creation is a synchronization operation: it runs under the token, so the
// child's tid, starting clock (the parent's clock) and memory view (the
// parent's just-committed state) are all deterministic.
//
// With the thread pool enabled (§3.3), a finished thread's workspace is
// reused instead of forked: the expensive page-table copy becomes a cheap
// view update. The modeled fork cost scales with the segment's populated
// pages, exactly the effect the paper describes. The scale-out scheduler
// (Shards >= 2) reuses whole parked workers instead (worker.go).
func (t *Thread) Spawn(fn func(api.T)) api.Handle {
	rt := t.rt
	m := &rt.cfg.Model
	t.syncOpStart(siteID(siteSpawn, 0))
	t.tokenBegin() // commits our writes: the child must see them
	t.uncoarsen()

	tid := rt.nextTid
	rt.nextTid++
	t.record(trace.OpSpawn, uint64(tid))
	if h := rt.hooks; h != nil {
		h.OnRelease(t.tid, spawnObj(tid))
	}

	var child *Thread
	reused := false
	var adopted *worker
	var adoptedB host.Binding
	if rt.shardSet != nil {
		if w := rt.popWorker(); w != nil {
			// Adopt a parked worker (docs/scheduler.md): the spawner only
			// dispatches the adoption (Model.PoolAdoptDispatch); the
			// re-registration is priced by the worker's first sub-token
			// acquisition, the wake latency host-side, and the view warm-up
			// runs on the worker, off this thread's critical path. The head
			// pin below makes the child's initial view byte-identical to a
			// fresh fork's.
			var ws *mem.Workspace
			var warmPulls int64
			if w.ws != nil {
				ws = w.ws
				w.ws = nil
				if err := rt.seg.Rebind(ws, tid); err != nil {
					panic(fmt.Sprintf("det: pool rebind: %v", err))
				}
			} else {
				// Pre-spawned worker, first adoption: its real fork happened
				// at startup with an empty page table; the stale view it
				// would now pull is modeled as the populated page count.
				var err error
				ws, err = rt.seg.Snapshot(tid)
				if err != nil {
					panic(fmt.Sprintf("det: spawn: %v", err))
				}
				warmPulls = int64(rt.seg.PopulatedPages())
			}
			t.account(obs.PhaseCompute)
			t.charge(obs.PhaseSpawn, m.PoolAdoptDispatch)
			child = rt.attachThread(tid, t.icount, ws)
			child.worker = w
			head := rt.seg.Head()
			// Assign under rt.mu: the started-gate. If the worker's task has
			// not started yet (b unset), its startup section — ordered by the
			// same mutex — sees next assigned and skips its initial park; no
			// wake is sent (there is no binding to wake). Otherwise the wake
			// below pairs with the worker's park as usual.
			rt.mu.Lock()
			w.next, w.fn = child, fn
			w.head = head
			w.warm, w.warmPulls = true, warmPulls
			adoptedB = w.b
			rt.mu.Unlock()
			adopted = w
			reused = true
		} else {
			// No worker free: fork, and run the child on a new worker so
			// its slot is poolable at exit.
			t.account(obs.PhaseCompute)
			t.charge(obs.PhaseSpawn, m.ForkBase+int64(rt.seg.PopulatedPages())*m.ForkPerPage)
			var err error
			child, err = rt.newThread(tid, t.icount)
			if err != nil {
				panic(fmt.Sprintf("det: spawn: %v", err))
			}
		}
	} else if rt.cfg.ThreadPool && rt.pooledWorkspaces() > 0 {
		rt.mu.Lock()
		ws := rt.pool[len(rt.pool)-1]
		rt.pool = rt.pool[:len(rt.pool)-1]
		rt.mu.Unlock()
		if err := rt.seg.Rebind(ws, tid); err != nil {
			panic(fmt.Sprintf("det: pool rebind: %v", err))
		}
		t.account(obs.PhaseCompute)
		pulled := ws.UpdateTo(rt.seg.Head())
		t.charge(obs.PhaseSpawn, m.PoolReuse+int64(pulled)*m.UpdatePage)
		child = rt.attachThread(tid, t.icount, ws)
		reused = true
	} else {
		// Fork: every populated page-table entry is copied into the child.
		t.account(obs.PhaseCompute)
		t.charge(obs.PhaseSpawn, m.ForkBase+int64(rt.seg.PopulatedPages())*m.ForkPerPage)
		var err error
		child, err = rt.newThread(tid, t.icount)
		if err != nil {
			panic(fmt.Sprintf("det: spawn: %v", err))
		}
	}
	rt.noteSpawn(reused)
	if h := rt.hooks; h != nil {
		h.OnSpawn(t.tid, tid)
	}
	switch {
	case adopted != nil:
		if adoptedB != nil {
			t.b.Wake(adoptedB)
		}
	case rt.shardSet != nil:
		rt.spawnWorker(child, fn, t.b)
	default:
		rt.h.Go(fmt.Sprintf("t%d", tid), t.b, func(b host.Binding) {
			child.start(b)
			rt.threadMain(child, fn)
		})
	}
	t.tokenEnd(coarsenNever, 0)
	return child
}

// pooledWorkspaces returns the legacy workspace-pool depth.
func (rt *Runtime) pooledWorkspaces() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.pool)
}

// spawnObj derives the hook object id for a spawn/exit edge of a tid.
func spawnObj(tid int) uint64 { return 1<<63 | uint64(tid) }

// ImplHandle marks Thread as an api.Handle.
func (t *Thread) ImplHandle() {}

// Join implements api.T: block until the child thread has exited.
func (t *Thread) Join(h api.Handle) {
	child, ok := h.(*Thread)
	if !ok {
		panic("det: foreign handle")
	}
	t.syncOpStart(siteID(siteJoin, 0))
	if t.rt.shardSet != nil {
		// Arbitrate the join in the child's provisional home shard
		// (tid-derived, computable without racing the running child). If
		// the child is still running, its exit retargets us to its final
		// domain shard via SetScope before the wake; if it has already
		// exited, the provisional request simply lands in the home shard.
		t.curShard = child.tid % t.rt.cfg.Shards
	}
	for {
		t.tokenBegin()
		t.uncoarsen()
		if child.done {
			t.record(trace.OpJoin, uint64(child.tid))
			if hk := t.rt.hooks; hk != nil {
				hk.OnAcquire(t.tid, spawnObj(child.tid))
				hk.OnUpdate(t.tid, t.ws.Version())
			}
			t.tokenEnd(coarsenNever, 0)
			return
		}
		child.joiners = append(child.joiners, t.tid)
		t.deliver(t.rt.arb.Depart(t.tid))
		t.releaseTokenRaw()
		t.blockForToken(diagJoinWait, fmt.Sprintf("join t%d", child.tid))
		// Woken holding the token; loop re-checks done (guaranteed now).
	}
}

// exit finishes a thread: commit final writes, wake joiners, recycle or
// release the workspace, fold statistics, and leave the clock order.
func (t *Thread) exit() {
	rt := t.rt
	t.syncOpStart(siteID(siteExit, 0))
	t.tokenBegin() // commits final writes
	t.uncoarsen()
	t.done = true
	t.record(trace.OpExit, uint64(t.tid))
	if h := rt.hooks; h != nil {
		h.OnRelease(t.tid, spawnObj(t.tid))
	}
	for _, j := range t.joiners {
		if rt.shardSet != nil {
			// Retarget the blocked joiner to this exit's domain shard so the
			// join grant is arbitrated where the exit event lives; the joiner
			// refreshes its own curShard from the arbiter on wakeup.
			rt.arb.SetScope(j, t.curShard)
		}
		t.deliver(rt.arb.ArriveWanting(j))
	}
	t.joiners = nil

	// Deregister while still holding the token. The pooling decision below
	// depends on how many threads remain; doing the map delete after the
	// token release would let another exiting thread observe us as still
	// live, pool its worker, and park forever.
	rt.mu.Lock()
	delete(rt.threads, t.tid)
	remaining := len(rt.threads)
	rt.mu.Unlock()

	switch {
	case t.worker != nil && remaining > 0 && rt.workerSlotFree():
		// Park this thread's worker, keeping the workspace warm for the
		// next Spawn to adopt. The snapshot stays at the current head,
		// pinning later versions until reuse — the realistic memory cost
		// of pooling. Insertion is token-held, keyed (exit clock, tid), so
		// the free-list order — and every later adoption — is
		// replay-stable.
		t.ws.UpdateTo(rt.seg.Head())
		w := t.worker
		w.ws = t.ws
		w.pooled = true
		rt.mu.Lock()
		rt.insertWorkerLocked(w, [2]int64{t.icount, int64(t.tid)})
		rt.mu.Unlock()
	case rt.cfg.ThreadPool && rt.shardSet == nil && rt.pooledWorkspaces() < rt.cfg.PoolCap:
		// Single-token workspace-only pool: keep the workspace, the host
		// task ends.
		t.ws.UpdateTo(rt.seg.Head())
		rt.mu.Lock()
		rt.pool = append(rt.pool, t.ws)
		rt.mu.Unlock()
	default:
		rt.seg.Release(t.ws)
	}
	if rt.shardSet != nil && remaining == 0 {
		rt.drainWorkers(t)
	}

	t.account(obs.PhaseCompute)
	rt.aggregate(t)
	t.releaseTokenRaw()
	t.deliver(rt.arb.Unregister(t.tid))
	t.diagPhase.Store(diagDone)
}

// workerSlotFree reports whether the worker free list has pool capacity.
func (rt *Runtime) workerSlotFree() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.workers) < rt.cfg.PoolCap
}
