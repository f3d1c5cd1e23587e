// Package clock implements Consequence's deterministic logical clock: the
// bookkeeping that decides, deterministically, which thread may hold the
// single global token required for every synchronization operation.
//
// Two ordering policies are provided, matching the paper's §2.1:
//
//   - IC (instruction count, the Kendo/GMIC policy): the token may only be
//     acquired by the requesting thread whose logical clock — a count of
//     retired instructions — is the global minimum among eligible threads,
//     with ties broken by thread ID. The paper reads hardware performance
//     counters; here the runtime advances each thread's clock explicitly
//     (compiler-instrumentation style counting, which the paper notes is an
//     equally sound clock source).
//
//   - RR (round robin): the token cycles through eligible threads in thread
//     ID order, one synchronization operation per turn. This is the policy
//     of DThreads and DWC, and of the Consequence-RR configuration.
//
// The Arbiter is pure bookkeeping: every mutating call returns the thread
// (if any) that should now be granted the token. The runtime is responsible
// for actually blocking and waking threads; determinism follows because
// grant decisions depend only on deterministic inputs (published clock
// values, eligibility transitions that occur at token-serialized points,
// and thread IDs).
package clock

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Policy selects the deterministic ordering discipline.
type Policy int

const (
	// PolicyIC orders synchronization by global-minimum instruction count.
	PolicyIC Policy = iota
	// PolicyRR orders synchronization round-robin by thread ID.
	PolicyRR
)

// String names the policy as it appears in runtime names ("IC", "RR").
func (p Policy) String() string {
	switch p {
	case PolicyIC:
		return "IC"
	case PolicyRR:
		return "RR"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// NoGrant is returned by arbiter operations when no thread becomes eligible
// to take the token as a result of the operation.
const NoGrant = -1

type threadState struct {
	tid   int
	count int64
	// eligible threads participate in GMIC / ring consideration. A thread
	// departs (becomes ineligible) when it blocks on a lock queue or
	// condition variable — the paper's clockDepart().
	eligible bool
	// wanting threads have requested the token and are blocked until
	// granted.
	wanting bool
	// scope is the shard of the thread's pending/latest request under
	// sharded granting (GlobalScope for cross-shard edges); unused in the
	// legacy single-domain mode.
	scope int
}

// Arbiter is the deterministic token arbiter. All methods are safe for
// concurrent use.
type Arbiter struct {
	mu      sync.Mutex
	policy  Policy
	threads map[int]*threadState
	order   []int // registered tids, sorted (the RR ring)
	holder  int
	// rrNext is the tid whose turn it is (RR policy). It may name an
	// unregistered tid after exits; grant search starts at the first
	// registered tid >= rrNext (cyclically).
	rrNext int
	// lastRelease is the clock of the thread that most recently released
	// the token; used by the fast-forward optimization (§3.5).
	lastRelease int64
	// fastForward enables §3.5 on Arrive.
	fastForward bool
	// nShards > 0 switches grant decisions to sharded granting
	// (shardgrant.go): per-shard release clocks, scoped fast-forward, and
	// the (count, shard id, tid) merge rule.
	nShards     int
	shardClocks []int64

	// stats
	grants   int64
	departs  int64
	ffJumps  int64
	ffAmount int64
}

// New creates an arbiter with the given policy. fastForward enables the
// §3.5 optimization (only meaningful under PolicyIC).
func New(policy Policy, fastForward bool) *Arbiter {
	return &Arbiter{
		policy:      policy,
		threads:     make(map[int]*threadState),
		holder:      NoGrant,
		rrNext:      0,
		fastForward: fastForward,
	}
}

// Policy returns the arbiter's ordering policy.
func (a *Arbiter) Policy() Policy { return a.policy }

// Register adds a thread with the given starting clock. The thread starts
// eligible and not wanting. Returns a grant if the registration unblocks
// one (it cannot under current policies, but the signature is uniform).
func (a *Arbiter) Register(tid int, start int64) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.threads[tid]; ok {
		panic(fmt.Sprintf("clock: tid %d registered twice", tid))
	}
	a.threads[tid] = &threadState{tid: tid, count: start, eligible: true, scope: GlobalScope}
	i := sort.SearchInts(a.order, tid)
	a.order = append(a.order, 0)
	copy(a.order[i+1:], a.order[i:])
	a.order[i] = tid
	return a.grantLocked()
}

// Unregister removes an exited thread. Returns a grant if its removal
// unblocks one.
func (a *Arbiter) Unregister(tid int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.state(tid)
	if st.wanting {
		panic(fmt.Sprintf("clock: tid %d unregistered while waiting for token", tid))
	}
	if a.holder == tid {
		panic(fmt.Sprintf("clock: tid %d unregistered while holding token", tid))
	}
	delete(a.threads, tid)
	i := sort.SearchInts(a.order, tid)
	a.order = append(a.order[:i], a.order[i+1:]...)
	return a.grantLocked()
}

// Advance adds delta retired instructions to the thread's clock and returns
// a grant if the advance makes some waiting thread the new global minimum.
func (a *Arbiter) Advance(tid int, delta int64) int {
	if delta < 0 {
		panic("clock: negative advance")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.state(tid).count += delta
	return a.grantLocked()
}

// Count returns the thread's current clock.
func (a *Arbiter) Count(tid int) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.state(tid).count
}

// Request records that tid wants the token. If the grant conditions already
// hold, the token is assigned immediately and Request returns tid; the
// caller proceeds without blocking. Otherwise the caller must block until
// some later operation returns tid as its grant.
func (a *Arbiter) Request(tid int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.state(tid)
	if a.holder == tid {
		panic(fmt.Sprintf("clock: tid %d requested token it already holds", tid))
	}
	if !st.eligible {
		panic(fmt.Sprintf("clock: departed tid %d requested token", tid))
	}
	st.wanting = true
	return a.grantLocked()
}

// Release gives up the token and returns the next grant, if any.
// The releaser's clock is advanced by one instruction: the synchronization
// operation itself retires work (Kendo does the same), and without it two
// threads at equal clocks would livelock — the smaller tid would win the
// token forever.
func (a *Arbiter) Release(tid int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.holder != tid {
		panic(fmt.Sprintf("clock: tid %d released token held by %d", tid, a.holder))
	}
	a.holder = NoGrant
	st := a.state(tid)
	st.count++
	a.lastRelease = st.count
	if a.nShards > 0 {
		a.foldReleaseLocked(st, st.count)
	}
	if a.policy == PolicyRR {
		a.rrNext = tid + 1
	}
	return a.grantLocked()
}

// TransferTo hands the token directly from the current holder to tid,
// bypassing arbitration. The Consequence mutexUnlock path uses this when
// the thread it wakes is the next thread in the deterministic order
// (paper §4.1 footnote: the token must pass directly to the woken thread to
// avoid nondeterminism). tid must be eligible and not already waiting.
func (a *Arbiter) TransferTo(from, to int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.holder != from {
		panic(fmt.Sprintf("clock: transfer from %d but holder is %d", from, a.holder))
	}
	st := a.state(to)
	if !st.eligible {
		panic(fmt.Sprintf("clock: transfer to departed tid %d", to))
	}
	fromSt := a.state(from)
	fromSt.count++
	a.lastRelease = fromSt.count
	if a.nShards > 0 {
		a.foldReleaseLocked(fromSt, fromSt.count)
	}
	if a.policy == PolicyRR {
		a.rrNext = from + 1
	}
	a.holder = to
	st.wanting = false
	a.grants++
}

// NudgePast raises tid's clock to just above the smallest clock among the
// *other* eligible threads (and by at least one), removing tid from GMIC
// contention for one round — the Kendo polling-lock discipline: a loser
// "increments their logical clock by some value until they are no longer
// the GMIC". Returns the new clock and any follow-on grant.
func (a *Arbiter) NudgePast(tid int) (int64, int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.state(tid)
	target := st.count + 1
	// Exceed the minimum clock among the other eligible threads.
	var minOther int64
	found := false
	for _, other := range a.threads {
		if other.tid == tid || !other.eligible {
			continue
		}
		if !found || other.count < minOther {
			minOther = other.count
			found = true
		}
	}
	if found && minOther+1 > target {
		target = minOther + 1
	}
	st.count = target
	return target, a.grantLocked()
}

// Depart removes tid from GMIC/ring consideration (the paper's
// clockDepart()) — used when a thread blocks on a lock queue or condition
// variable so that it cannot stall the global order. Departing while
// holding the token is allowed (Figure 7 calls clockDepart before
// releaseToken); the token itself is relinquished separately via Release.
// Returns the follow-on grant, if any.
func (a *Arbiter) Depart(tid int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.state(tid)
	st.eligible = false
	st.wanting = false
	a.departs++
	return a.grantLocked()
}

// Arrive re-adds tid to consideration after a Depart. With fast-forward
// enabled, the thread's clock jumps to the clock of the last token releaser
// if that is larger (§3.5), preventing a long-blocked thread from pinning
// the global minimum. Returns the follow-on grant, if any.
func (a *Arbiter) Arrive(tid int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.state(tid)
	st.eligible = true
	if target := a.ffTargetLocked(st); a.fastForward && target > st.count {
		a.ffJumps++
		a.ffAmount += target - st.count
		st.count = target
	}
	return a.grantLocked()
}

// ArriveWanting atomically re-admits tid to consideration (with
// fast-forward, as Arrive) and marks it as waiting for the token — on the
// thread's behalf, by whoever is waking it. A deterministic runtime must
// re-arm a sleeping thread this way: if the woken thread raced to call
// Request itself, whether it made the next grant round would depend on
// real-time scheduling (the hazard the paper's footnote 4 describes).
// Returns the follow-on grant, if any (none while the caller holds the
// token).
func (a *Arbiter) ArriveWanting(tid int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.state(tid)
	st.eligible = true
	if target := a.ffTargetLocked(st); a.fastForward && target > st.count {
		a.ffJumps++
		a.ffAmount += target - st.count
		st.count = target
	}
	st.wanting = true
	return a.grantLocked()
}

// LastRelease returns the clock of the most recent token release. The
// sharded-arbitration invariant tests compare it against merged shard
// clocks: no shard clock may ever exceed it.
func (a *Arbiter) LastRelease() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastRelease
}

// Holder returns the tid currently holding the token, or NoGrant.
func (a *Arbiter) Holder() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.holder
}

// IsMinEligible reports whether tid currently has the smallest clock
// (ties by tid) among eligible threads — i.e., whether it is the GMIC.
// The adaptive overflow policy's rule 2 only applies to the GMIC thread:
// it is the one whose progress gates every waiter.
func (a *Arbiter) IsMinEligible(tid int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	self, ok := a.threads[tid]
	if !ok || !self.eligible {
		return false
	}
	for _, st := range a.threads {
		if !st.eligible || st.tid == tid {
			continue
		}
		if st.count < self.count || (st.count == self.count && st.tid < tid) {
			return false
		}
	}
	return true
}

// MinWantingAbove returns the smallest clock value among threads waiting
// for the token whose clock is strictly greater than `above`, and whether
// one exists. The adaptive counter-overflow policy (§3.2) uses this: a
// running GMIC thread sets its next overflow to fire just as its clock
// passes the next waiter's.
func (a *Arbiter) MinWantingAbove(above int64) (int64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	best := int64(0)
	found := false
	for _, st := range a.threads {
		if st.wanting && st.count > above && (!found || st.count < best) {
			best = st.count
			found = true
		}
	}
	return best, found
}

// state looks up tid or panics: calls against unknown threads are runtime
// bugs, not recoverable conditions.
func (a *Arbiter) state(tid int) *threadState {
	st, ok := a.threads[tid]
	if !ok {
		panic(fmt.Sprintf("clock: unknown tid %d", tid))
	}
	return st
}

// grantLocked evaluates the grant condition and assigns the token if some
// waiting thread qualifies. Returns the granted tid or NoGrant.
func (a *Arbiter) grantLocked() int {
	if a.holder != NoGrant {
		return NoGrant
	}
	switch a.policy {
	case PolicyIC:
		if a.nShards > 0 {
			return a.grantShardedLocked()
		}
		return a.grantICLocked()
	case PolicyRR:
		return a.grantRRLocked()
	default:
		panic("clock: unknown policy")
	}
}

// grantICLocked: grant to the unique eligible minimum of (count, tid) if it
// is waiting. If the minimum belongs to a running (non-waiting) thread, no
// waiter may proceed yet — the running thread could still synchronize at a
// lower clock.
func (a *Arbiter) grantICLocked() int {
	var min *threadState
	for _, tid := range a.order {
		st := a.threads[tid]
		if !st.eligible {
			continue
		}
		if min == nil || st.count < min.count || (st.count == min.count && st.tid < min.tid) {
			min = st
		}
	}
	if min == nil || !min.wanting {
		return NoGrant
	}
	a.holder = min.tid
	min.wanting = false
	a.grants++
	return min.tid
}

// grantRRLocked: the turn belongs to the first eligible thread at or after
// rrNext in cyclic tid order. Grant only if that specific thread is
// waiting; otherwise everyone waits for it to synchronize (this is exactly
// the round-robin pathology of Figure 1b).
func (a *Arbiter) grantRRLocked() int {
	if len(a.order) == 0 {
		return NoGrant
	}
	turn := a.turnLocked()
	if turn == nil || !turn.wanting {
		return NoGrant
	}
	a.holder = turn.tid
	turn.wanting = false
	a.grants++
	return turn.tid
}

// turnLocked finds the thread whose RR turn it is.
func (a *Arbiter) turnLocked() *threadState {
	i := sort.SearchInts(a.order, a.rrNext)
	n := len(a.order)
	for k := 0; k < n; k++ {
		st := a.threads[a.order[(i+k)%n]]
		if st.eligible {
			return st
		}
	}
	return nil
}

// Stats reports arbitration counters.
type Stats struct {
	Grants          int64
	Departs         int64
	FastForwards    int64
	FastForwardSkip int64 // total instructions skipped by fast-forwards
}

// DumpState renders the arbiter's thread table — holder, and each
// registered thread's clock, eligibility and wanting flags — for failure
// diagnostics (watchdog stall dumps, RuntimeError context). Safe to call
// from any goroutine at any time.
func (a *Arbiter) DumpState() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "arbiter: policy=%s holder=%d grants=%d departs=%d\n", a.policy, a.holder, a.grants, a.departs)
	if a.nShards > 0 {
		fmt.Fprintf(&b, "  shard clocks: %v\n", a.shardClocks)
	}
	for _, tid := range a.order {
		st := a.threads[tid]
		fmt.Fprintf(&b, "  t%-4d clock=%-12d eligible=%-5v wanting=%v", tid, st.count, st.eligible, st.wanting)
		if a.nShards > 0 {
			fmt.Fprintf(&b, " scope=%d", st.scope)
		}
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n")
}

// Stats returns a snapshot of arbitration counters.
func (a *Arbiter) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{Grants: a.grants, Departs: a.departs, FastForwards: a.ffJumps, FastForwardSkip: a.ffAmount}
}
