package clock

import "fmt"

// Sharded granting (docs/scheduler.md): the arbiter itself is partitioned
// into per-shard grant domains. Every request names a scope — one shard
// for shardable operations (mutex and condition ops, spawns and exits in
// the acting thread's domain, joins in the child's domain) or GlobalScope
// for true cross-shard edges (barrier rendezvous, forced commits). Each
// shard keeps its own release clock, blocked threads fast-forward only to
// their scope's shard clock instead of the global last release, and the
// grant decision orders candidates by the merge rule
//
//	(count, shard id, tid)   — lexicographic, GlobalScope sorting last —
//
// where count is the requester's logical clock after fast-forwarding into
// its shard's clock domain. The rule is a total order over deterministic
// inputs, so the interleave of the per-shard grant sequences is
// replay-stable by construction: host timing can delay a grant but never
// change which thread is granted next.
//
// The free-runner gate makes grant *timing* irrelevant to grant *order*:
// a candidate is granted only when no eligible non-wanting thread could
// still submit a request that the merge rule would place earlier. A
// free-running thread x with clock c_x can at best request shard 0 at
// key (c_x, 0, x.tid) — clocks are monotone — so the candidate (c, k, w)
// is held back exactly when c_x < c, or c_x == c and (k > 0 or
// x.tid < w.tid). This is the sharded generalization of the legacy GMIC
// condition "the eligible minimum must be the one wanting".

// GlobalScope is the request scope of a cross-shard edge: the operation
// rendezvouses with every shard, and its grant key sorts after any
// single-shard request at the same clock.
const GlobalScope = -1

// keyGlobal is GlobalScope's position in the merge rule's shard-id slot:
// larger than any real shard index, so cross-shard edges yield to
// single-shard requests at equal clocks.
const keyGlobal = 1 << 30

// EnableShardGrants switches the arbiter to sharded granting with n
// shards. Must be called before any thread registers, and only under
// PolicyIC (round-robin has no clock domain to shard).
func (a *Arbiter) EnableShardGrants(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.policy != PolicyIC {
		panic("clock: sharded granting requires PolicyIC")
	}
	if n < 2 {
		panic(fmt.Sprintf("clock: sharded granting needs at least 2 shards, got %d", n))
	}
	if len(a.threads) > 0 {
		panic("clock: EnableShardGrants after threads registered")
	}
	a.nShards = n
	a.shardClocks = make([]int64, n)
}

// RequestSharded is Request with an explicit scope: shard in [0, n) for a
// single-shard operation, or GlobalScope for a cross-shard edge. The scope
// sticks to the thread — Depart/ArriveWanting re-arms and fast-forwards
// against the same scope — until the next RequestSharded or SetScope.
func (a *Arbiter) RequestSharded(tid, shard int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.checkScope(shard)
	st := a.state(tid)
	if a.holder == tid {
		panic(fmt.Sprintf("clock: tid %d requested token it already holds", tid))
	}
	if !st.eligible {
		panic(fmt.Sprintf("clock: departed tid %d requested token", tid))
	}
	st.scope = shard
	st.wanting = true
	return a.grantLocked()
}

// SetScope retargets a blocked thread's request scope. The exit path uses
// it to point a parked joiner at the exiting child's actual domain shard
// (unknown when the joiner requested) before re-arming it; the call is
// token-serialized, so the retarget is deterministic.
func (a *Arbiter) SetScope(tid, shard int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.checkScope(shard)
	a.state(tid).scope = shard
}

// Scope returns tid's current request scope (meaningful only under
// sharded granting). The runtime reads it when routing a wake to compute
// the target's virtual-time anchor.
func (a *Arbiter) Scope(tid int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.state(tid).scope
}

// ShardClock returns shard sh's release clock under sharded granting.
func (a *Arbiter) ShardClock(sh int) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.shardClocks[sh]
}

// checkScope panics on a scope outside [0, n) ∪ {GlobalScope}.
func (a *Arbiter) checkScope(shard int) {
	if a.nShards == 0 {
		panic("clock: scoped call without EnableShardGrants")
	}
	if shard != GlobalScope && (shard < 0 || shard >= a.nShards) {
		panic(fmt.Sprintf("clock: scope %d out of range (%d shards)", shard, a.nShards))
	}
}

// foldReleaseLocked publishes a release at clock clk into the releaser's
// scope: a single-shard release overwrites its shard's clock (the shard's
// "last release", mirroring the legacy lastRelease semantics per domain);
// a global edge folds every shard clock and the release together to their
// maximum — the rendezvous all partitions observe.
func (a *Arbiter) foldReleaseLocked(st *threadState, clk int64) {
	if st.scope != GlobalScope {
		a.shardClocks[st.scope] = clk
		return
	}
	max := clk
	for _, c := range a.shardClocks {
		if c > max {
			max = c
		}
	}
	for i := range a.shardClocks {
		a.shardClocks[i] = max
	}
}

// ffTargetLocked returns the clock a thread arriving back into
// consideration fast-forwards to: its scope's shard clock, or the maximum
// over all shards for a global edge. Per-shard targets are what lets two
// blocked threads in different shards resume without dragging each other's
// clock domain forward.
func (a *Arbiter) ffTargetLocked(st *threadState) int64 {
	if a.nShards == 0 {
		return a.lastRelease
	}
	if st.scope != GlobalScope {
		return a.shardClocks[st.scope]
	}
	var max int64
	for _, c := range a.shardClocks {
		if c > max {
			max = c
		}
	}
	return max
}

// shardKey returns st's shard-id slot in the merge rule.
func shardKey(st *threadState) int {
	if st.scope == GlobalScope {
		return keyGlobal
	}
	return st.scope
}

// mergeLess orders two wanting threads by the merge rule
// (count, shard id, tid).
func mergeLess(x, y *threadState) bool {
	if x.count != y.count {
		return x.count < y.count
	}
	if kx, ky := shardKey(x), shardKey(y); kx != ky {
		return kx < ky
	}
	return x.tid < y.tid
}

// grantShardedLocked evaluates the sharded grant condition: pick the
// merge-rule minimum among wanting threads, then apply the free-runner
// gate (see the package comment above) so that the grant order is
// independent of when free-running threads publish their clocks.
func (a *Arbiter) grantShardedLocked() int {
	var cand *threadState
	for _, tid := range a.order {
		st := a.threads[tid]
		if !st.eligible || !st.wanting {
			continue
		}
		if cand == nil || mergeLess(st, cand) {
			cand = st
		}
	}
	if cand == nil {
		return NoGrant
	}
	ck := shardKey(cand)
	for _, tid := range a.order {
		st := a.threads[tid]
		if !st.eligible || st.wanting || st.tid == cand.tid {
			continue
		}
		// st free-runs: its earliest possible future request key is
		// (st.count, 0, st.tid). Hold the candidate back if that key could
		// precede the candidate's — clocks only grow, so the check is exact.
		if st.count < cand.count || (st.count == cand.count && (ck > 0 || st.tid < cand.tid)) {
			return NoGrant
		}
	}
	a.holder = cand.tid
	cand.wanting = false
	a.grants++
	return cand.tid
}
