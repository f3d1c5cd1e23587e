package clock

import (
	"fmt"
	"strings"
	"sync"
)

// ShardSet is the bookkeeping half of sharded token arbitration
// (docs/scheduler.md): lock objects are partitioned into N shards, each
// with its own sub-token holder and shard clock. Grant decisions live in
// the Arbiter (the sharded merge rule in shardgrant.go) — the ShardSet
// never grants anything — but it records, per shard, who last held the
// shard's sub-token and the release clock of the shard's last operation,
// so the runtime can tell a cheap shard-local re-acquire (the previous
// holder taking its own sub-token back) from a full cross-thread
// transfer, and can price the shard-clock merge that cross-shard edges
// (barriers, forced commits) must perform. It also carries each shard's
// virtual-time frontier — the anchor that lets operations in different
// shards overlap in modeled time — and per-shard busy accounting for the
// grant-parallelism metric.
//
// All methods are called with the global token held (grant decisions are
// token-serialized), so the state transitions are deterministic; the mutex
// only protects concurrent *reads* from Stats/DumpState.
type ShardSet struct {
	mu      sync.Mutex
	holders []int   // last tid granted each shard's sub-token (NoGrant = never)
	clocks  []int64 // shard clock: release clock of the shard's last op
	grants  []int64 // per-shard grant counts

	locals    int64 // sub-token re-acquires by the shard's previous holder
	transfers int64 // sub-token handoffs to a different thread
	merges    int64 // cross-shard merges performed at edges

	// Virtual-time state, all written with the machine token held:
	frontiers    []int64 // virtual ns at which each shard's last op released
	busy         []int64 // summed token-held virtual ns per shard
	globalBusyNS int64   // token-held virtual ns of cross-shard edges
}

// NewShardSet creates a ShardSet with n shards (n ≥ 1).
func NewShardSet(n int) *ShardSet {
	if n < 1 {
		panic(fmt.Sprintf("clock: ShardSet needs at least 1 shard, got %d", n))
	}
	s := &ShardSet{
		holders:   make([]int, n),
		clocks:    make([]int64, n),
		grants:    make([]int64, n),
		frontiers: make([]int64, n),
		busy:      make([]int64, n),
	}
	for i := range s.holders {
		s.holders[i] = NoGrant
	}
	return s
}

// Shards returns the shard count.
func (s *ShardSet) Shards() int { return len(s.holders) }

// NoteGrant records that tid was granted shard sh's sub-token and reports
// whether this was a shard-local re-acquire (tid already held it — the
// cheap path priced at Model.ShardHandoff instead of TokenHandoff).
func (s *ShardSet) NoteGrant(sh, tid int) (local bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.grants[sh]++
	if s.holders[sh] == tid {
		s.locals++
		return true
	}
	s.holders[sh] = tid
	s.transfers++
	return false
}

// NoteRelease publishes clk as shard sh's clock at sub-token release.
// Shard clocks are monotone: a stale clk (possible only through a runtime
// bug) is ignored rather than rolled back.
func (s *ShardSet) NoteRelease(sh int, clk int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if clk > s.clocks[sh] {
		s.clocks[sh] = clk
	}
}

// Merge performs a cross-shard edge: every shard clock is folded together
// with clk, the merged value is published back to all shards, and the
// merged clock is returned. After a Merge all shard clocks are equal —
// the edge (barrier, fork, join, exit) has synchronized the partitions.
func (s *ShardSet) Merge(clk int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.merges++
	max := clk
	for _, c := range s.clocks {
		if c > max {
			max = c
		}
	}
	for i := range s.clocks {
		s.clocks[i] = max
	}
	return max
}

// ReleaseAll publishes clk to every shard clock (monotone, like
// NoteRelease) without counting a merge: the release half of a cross-shard
// edge, whose merged clock every shard must observe.
func (s *ShardSet) ReleaseAll(clk int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.clocks {
		if clk > s.clocks[i] {
			s.clocks[i] = clk
		}
	}
}

// Clock returns shard sh's current shard clock.
func (s *ShardSet) Clock(sh int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clocks[sh]
}

// SetAllHolders marks tid as the holder of every shard's sub-token — a
// cross-shard edge engages all partitions, so the next single-shard op on
// any shard by a different thread is a transfer, not a local re-acquire.
func (s *ShardSet) SetAllHolders(tid int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.holders {
		s.holders[i] = tid
	}
}

// PublishFrontier records that scope's last operation released at virtual
// time ns (scope GlobalScope publishes to every shard). Frontiers are
// monotone per shard: under per-shard granting every op in a shard is
// anchored at or after the shard's previous frontier.
func (s *ShardSet) PublishFrontier(scope int, ns int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if scope != GlobalScope {
		if ns > s.frontiers[scope] {
			s.frontiers[scope] = ns
		}
		return
	}
	for i := range s.frontiers {
		if ns > s.frontiers[i] {
			s.frontiers[i] = ns
		}
	}
}

// Frontier returns scope's virtual-time anchor: the frontier of the named
// shard, or the maximum over all shards for GlobalScope. An operation
// entering scope may not begin its token-held work before this instant —
// its scope's sub-token is virtually busy until then.
func (s *ShardSet) Frontier(scope int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if scope != GlobalScope {
		return s.frontiers[scope]
	}
	var max int64
	for _, f := range s.frontiers {
		if f > max {
			max = f
		}
	}
	return max
}

// AddBusy accrues ns of token-held work to scope (GlobalScope accrues to
// the cross-shard bucket). The observability layer divides these by wall
// time for per-shard arbiter utilization and the grant-parallelism metric.
func (s *ShardSet) AddBusy(scope int, ns int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if scope == GlobalScope {
		s.globalBusyNS += ns
		return
	}
	s.busy[scope] += ns
}

// BusyNS returns each shard's accrued token-held virtual ns and the
// cross-shard edges' bucket.
func (s *ShardSet) BusyNS() ([]int64, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.busy...), s.globalBusyNS
}

// FrontierNS returns shard sh's current frontier (for metrics).
func (s *ShardSet) FrontierNS(sh int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frontiers[sh]
}

// ShardStats is a snapshot of a ShardSet's counters.
type ShardStats struct {
	Shards    int
	Locals    int64   // shard-local sub-token re-acquires (cheap path)
	Transfers int64   // cross-thread sub-token handoffs
	Merges    int64   // cross-shard edge merges
	Grants    []int64 // per-shard grant counts
}

// Stats returns a snapshot of the shard counters.
func (s *ShardSet) Stats() ShardStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ShardStats{
		Shards:    len(s.holders),
		Locals:    s.locals,
		Transfers: s.transfers,
		Merges:    s.merges,
		Grants:    append([]int64(nil), s.grants...),
	}
}

// DumpState renders the per-shard table for failure diagnostics.
func (s *ShardSet) DumpState() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "shards: n=%d locals=%d transfers=%d merges=%d\n",
		len(s.holders), s.locals, s.transfers, s.merges)
	for i := range s.holders {
		fmt.Fprintf(&b, "  shard %-3d holder=%-4d clock=%-12d grants=%d\n",
			i, s.holders[i], s.clocks[i], s.grants[i])
	}
	return strings.TrimRight(b.String(), "\n")
}
