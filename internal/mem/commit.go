package mem

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
)

// CommitStats summarizes one commit (or pure update) for cost accounting.
type CommitStats struct {
	// CommittedPages is the number of pages with at least one changed byte.
	CommittedPages int
	// MergedPages counts committed pages that conflicted (another thread
	// committed the same page since this workspace's snapshot) and thus
	// required a byte-granularity merge.
	MergedPages int
	// DiffBytes is the total number of bytes this commit changed.
	DiffBytes int
	// PulledPages is the number of distinct remote pages whose
	// modifications became visible by advancing the snapshot.
	PulledPages int
	// SpecHits counts committed pages whose diff was computed speculatively
	// (PrepareCommit, off the serial token path) and reused as-is by the
	// serial phase; SpecMisses counts committed pages whose diff had to be
	// computed inside BeginCommit because no valid speculation existed —
	// the page was written after the speculation, or PrepareCommit was
	// never called (e.g. a commit inside a coarsened chunk, where the token
	// never left the thread and there was no wait to overlap).
	// SpecHits + SpecMisses == CommittedPages.
	SpecHits   int
	SpecMisses int
}

// PendingCommit is a commit whose serial ordering phase (BeginCommit) has
// run but whose merge phase (Complete) may still be outstanding. The split
// implements Conversion's two-phase parallel commit (§4.2): phase one runs
// under the runtime's global token and fixes the total order; phase two
// does the expensive page merging and may run concurrently across threads.
// It is a small value, returned by value so a commit allocates no handle.
type PendingCommit struct {
	version *Version // nil if the workspace had no changes
	stats   CommitStats
}

// Stats returns the commit's accounting counters.
func (pc PendingCommit) Stats() CommitStats { return pc.stats }

// Version returns the version this commit created, or nil if the workspace
// had no modified bytes (the commit degenerated to an update).
func (pc PendingCommit) Version() *Version { return pc.version }

// rediffParallelMin is the invalidated-page count at which BeginCommit
// fans re-diffing across a worker pool instead of the inline loop;
// rediffWorkers bounds the pool. Diffing is a pure per-page function of
// thread-private bytes, so the fan-out cannot change results — it only
// shortens wall time on the real host. The simulation host charges its
// deterministic cost model per page regardless of how the host CPU
// computed the diff, so its modeled times are unaffected (the same way
// CompleteThrough charges "parallel" merges from one goroutine).
const (
	rediffParallelMin = 16
	rediffWorkers     = 4
)

// rediff sets the speculative diff of every page in misses. Pages are
// independent; large sets are diffed by a small worker pool.
func rediff(misses []*dirtyPage) {
	if len(misses) < rediffParallelMin {
		for _, dp := range misses {
			dp.prepare()
		}
		return
	}
	workers := rediffWorkers
	if n := runtime.GOMAXPROCS(0); n < workers {
		workers = n
	}
	chunk := (len(misses) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(misses); lo += chunk {
		sub := misses[lo:min(lo+chunk, len(misses))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, dp := range sub {
				dp.prepare()
			}
		}()
	}
	wg.Wait()
}

// byPage orders dirty pages by page index.
func byPage(a, b *dirtyPage) int { return cmp.Compare(a.page, b.page) }

// BeginCommit runs the serial phase of a commit: it assigns the next
// version number, records which pages the version modifies together with
// their byte diffs, and advances the workspace snapshot past the new
// version. The caller must serialize BeginCommit calls on a segment (the
// deterministic runtimes do so by holding the global token), or the commit
// order — and therefore the program's memory state — would not be
// deterministic.
//
// The expensive work — importing pulled remote bytes and diffing dirty
// pages — happens outside the segment lock: commit serialization already
// excludes concurrent commits, and everything touched off-lock is
// thread-private (dirty pages) or immutable (published diffs). The lock is
// held only for the two decisions that read or write shared segment state:
// choosing the pull window, and publishing the version (conflict checks,
// latest/head update). Diffs are reused from PrepareCommit speculation
// where valid; only invalidated pages are re-diffed here.
//
// Pages whose bytes did not actually change are dropped (their fault was
// wasted work, which the fault counter already recorded).
//
// The path walks only slices: the workspace's dirty list, scratch lists
// and the segment's page-indexed tables. Its only allocations are the
// published version and its slot slice, plus the diffs of pages
// re-diffed here; a commit that publishes nothing allocates nothing.
func (ws *Workspace) BeginCommit() PendingCommit {
	s := ws.seg
	var pc PendingCommit

	// Serial decision 1 (locked): fix the pull window and collect the
	// published slots that must patch our dirty pages.
	s.mu.Lock()
	oldV := ws.version
	headBefore := s.head
	var patches []*pageSlot
	if oldV < headBefore {
		patches, pc.stats.PulledPages = ws.pullLocked(headBefore)
	}
	s.mu.Unlock()

	// Import remote bytes into dirty pages before diffing so the commit
	// cannot resurrect stale values for bytes this thread never wrote.
	ws.applyPatches(patches)

	// Diff dirty pages in deterministic (ascending page) order. Pages with
	// valid speculative diffs are free; the invalidated rest are re-diffed
	// here, fanned across a worker pool when there are many.
	pages := ws.dirtyList
	slices.SortFunc(pages, byPage)
	misses := ws.scratchMisses[:0]
	for _, dp := range pages {
		if !dp.specOK {
			misses = append(misses, dp)
		}
	}
	rediff(misses)

	// Split the pages, off the lock, into three kinds. Pages with a
	// nonempty diff are published. Prefetched pages never written live
	// through exactly one commit: fresh ones are kept (demoted to stale)
	// so the chunk they were prefetched for — which runs after this very
	// commit — still finds them; stale ones were a wasted prediction.
	// Those and the other unchanged pages are dropped now. The empty diff
	// keeps every unpublished page out of every commit statistic. A kept
	// page stays byte-identical to the committed state at the workspace's
	// new version: this commit does not publish it, and every prior patch
	// imported remote bytes into data and twin alike. The dirty list is
	// compacted in place to the kept pages.
	pub := ws.scratchPub[:0]
	kept := pages[:0]
	var wasted int64
	freed := int64(0)
	mi := 0
	for _, dp := range pages {
		miss := mi < len(misses) && misses[mi] == dp
		if miss {
			mi++
		}
		switch {
		case !dp.spec.Empty():
			pc.stats.DiffBytes += dp.spec.Bytes()
			if miss {
				pc.stats.SpecMisses++
			} else {
				pc.stats.SpecHits++
			}
			pub = append(pub, dp)
		case ws.predict && dp.pf == pfFresh:
			dp.pf = pfStale
			kept = append(kept, dp)
		default:
			if dp.pf != pfNone {
				wasted++
			}
			freed -= 2 // dirty copy and twin both freed
			ws.drop(dp)
		}
	}
	clear(pages[len(kept):])
	ws.dirtyList = kept
	clear(misses)
	ws.scratchMisses = misses[:0]

	var v *Version
	if len(pub) > 0 {
		// Commits are serialized, so the number is known before the lock.
		v = &Version{Num: headBefore + 1, Committer: ws.tid, slots: make([]pageSlot, len(pub))}
	}

	// Serial decision 2 (locked): conflict checks against the latest table
	// and version publication. Nothing below computes diffs; the lock
	// covers only version construction and the latest/head update.
	s.mu.Lock()
	if v == nil {
		// Nothing to publish: behave as an update.
		ws.version = headBefore
		s.mu.Unlock()
		s.allocPages(freed)
		s.addPulled(int64(pc.stats.PulledPages))
		s.notePrefetchWasted(wasted)
		return pc
	}
	if s.latest == nil {
		s.latest = make([]*pageSlot, s.npages)
	}
	for i, dp := range pub {
		slot := &v.slots[i]
		slot.page, slot.version, slot.prev, slot.diff, slot.seg = dp.page, v, s.latest[dp.page], dp.spec, s
		// A conflict means some other thread committed this page after our
		// snapshot; phase 2 must merge rather than install our copy.
		if slot.prev != nil && slot.prev.version.Num > oldV {
			slot.conflict = true
			pc.stats.MergedPages++
			freed -= 2 // our raw copy and twin freed; merge allocates
		} else {
			// Our copy becomes the committed page; drop frees the twin.
			slot.fastData = dp.data
			dp.data = nil
			freed--
		}
		s.latest[dp.page] = slot
	}
	s.versions = append(s.versions, v)
	s.head = v.Num
	ws.version = v.Num
	pc.version = v
	pc.stats.CommittedPages = len(pub)
	s.mu.Unlock()

	for _, dp := range pub {
		ws.drop(dp)
	}
	clear(pub)
	ws.scratchPub = pub[:0]
	s.allocPages(freed)
	s.noteCommit(pc.stats)
	s.notePrefetchWasted(wasted)
	return pc
}

// Complete runs the merge phase: every page the version touches gets its
// final content, merging the committer's diff over the previous version of
// the page where a conflict exists. Safe to call from any goroutine;
// multiple calls (and concurrent reader-forced resolution) are idempotent.
func (pc PendingCommit) Complete() {
	if pc.version != nil {
		pc.version.complete()
	}
}

func (v *Version) complete() {
	for i := range v.slots {
		v.slots[i].resolve()
	}
}

// Commit is the common single-phase form: serial ordering immediately
// followed by the merge. Returns the commit statistics.
func (ws *Workspace) Commit() CommitStats {
	pc := ws.BeginCommit()
	pc.Complete()
	return pc.stats
}

// CompleteThrough finishes the merge phase of every pending version with
// Num <= n, in version order. The simulation host uses this to execute the
// "parallel" barrier merges deterministically from a single goroutine while
// charging each virtual thread its own parallel cost; the result is
// byte-identical to truly parallel Complete calls.
func (s *Segment) CompleteThrough(n int64) {
	s.mu.Lock()
	var todo []*Version
	for _, v := range s.versions {
		if v.Num > n {
			break
		}
		if v.Pending() {
			todo = append(todo, v)
		}
	}
	s.mu.Unlock()
	for _, v := range todo {
		v.complete()
	}
}

// ReadCommitted copies bytes from the segment's state as of version `at`
// into buf, ignoring all workspaces. Used by the harness and tests to
// observe and hash final memory. Resolves pending versions on demand.
//
// No workspace pins `at`, so GC may fold past it and recycle the very page
// being read; each page is therefore located and copied under the segment
// lock, which GC holds while it recycles.
func (s *Segment) ReadCommitted(buf []byte, off int, at int64) {
	if off < 0 || off+len(buf) > s.size {
		panic("mem: ReadCommitted out of range")
	}
	for len(buf) > 0 {
		pg, po := s.pageIndex(off)
		n := s.pageSize - po
		if n > len(buf) {
			n = len(buf)
		}
		s.mu.Lock()
		slot, src := s.pageAtLocked(pg, at)
		if slot != nil {
			src = slot.resolve()
		}
		copy(buf[:n], src[po:po+n])
		s.mu.Unlock()
		buf = buf[n:]
		off += n
	}
}
