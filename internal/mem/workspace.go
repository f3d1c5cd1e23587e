package mem

import "fmt"

// Workspace is one thread's isolated view of a Segment: a snapshot version
// plus a private set of dirty pages. A workspace is owned by a single
// thread; only Segment-level operations (commit publication, GC) are
// internally synchronized.
type Workspace struct {
	seg     *Segment
	tid     int
	version int64 // snapshot version this view reflects
	// dirty indexes the dirty pages for Read and Write; dirtyList holds
	// the same records, so the commit path walks a slice (in an order it
	// fixes by sorting) rather than iterating the map.
	dirty     map[int]*dirtyPage
	dirtyList []*dirtyPage
	// freeDirty recycles the records of pages that left the dirty set.
	freeDirty []*dirtyPage
	// installs counts dirty-page installs; each record carries its own
	// install number, so a record reused for a new install is told apart
	// from the one it replaced.
	installs uint64

	// Counters since the last TakeCounters call; the runtime converts
	// these into charged costs and stats.
	faults int64

	// faultPerturb, when set, is consulted on every serviced page fault
	// (CoW fault or prefetch population) and its result accumulates into
	// chaosFaultNS — the chaos subsystem's injected fault slowdown. The
	// runtime drains the accumulator (TakeChaosFaultNS) wherever it
	// charges fault or prefetch time, so the delay is pure modeled
	// latency: page contents and fault counts are untouched.
	faultPerturb func(page int) int64
	chaosFaultNS int64

	// predict enables write-set logging and page prefetching: faults and
	// first-writes are recorded into chunkWrites (the training signal for
	// the runtime's write-set predictor), and Prepopulate may install
	// prefetched pages that survive exactly one commit (see dirtyPage.pf).
	predict bool
	// chunkWrites logs the pages this chunk wrote (CoW faults plus first
	// writes to prefetched pages), in first-touch order, since the last
	// TakeChunkWrites. Only maintained while predict is set.
	chunkWrites []int

	// Commit-path scratch, reused across BeginCommit and UpdateTo calls
	// so they allocate no lists: the slots that patch dirty pages, the
	// pages BeginCommit must re-diff, and the pages it publishes. Owned by
	// the workspace's thread, like dirty.
	scratchPatches []*pageSlot
	scratchMisses  []*dirtyPage
	scratchPub     []*dirtyPage
}

// Prefetch states of a dirty page (dirtyPage.pf).
const (
	// pfNone: an ordinary copy-on-write page (faulted by a local write).
	pfNone uint8 = iota
	// pfFresh: installed by Prepopulate and not yet written. A fresh page
	// survives the next commit (the commit of the very sync op whose wait
	// the prefetch overlapped — the chunk it was prefetched for runs after
	// that commit), demoted to stale.
	pfFresh
	// pfStale: a prefetched page that survived one commit without ever
	// being written. The next commit drops it as a wasted prefetch unless
	// a Prepopulate re-predicts it first (refreshing it to pfFresh).
	pfStale
)

// dirtyPage is a privately writable copy of a page plus its pristine twin.
// Records are recycled through the workspace's free list (Workspace.drop),
// so a record's identity does not name an install; its install number
// does.
type dirtyPage struct {
	page    int
	install uint64
	// data is the private copy the thread writes, drawn from the segment's
	// page pool. It goes back to the pool when the page leaves the dirty
	// set, unless a commit published it as the version's page (then
	// BeginCommit sets it to nil).
	data []byte
	// twin is the page as of the snapshot, kept in step with imported
	// remote bytes. While sharedTwin is set it is the immutable committed
	// page itself (a base, version or zero page) and must not be written:
	// ownTwin swaps in a private copy before the first import writes it.
	// Only remote patches write twins, and a patch from a version touching
	// this page is applied (privatizing the twin) before the workspace
	// passes that version — so GC, which recycles a committed page only
	// after every workspace has passed a later version of it, never
	// recycles a buffer a shared twin still references.
	twin       []byte
	sharedTwin bool
	// [lo, hi) is the byte extent of the thread's own writes since the
	// page was installed (empty, lo >= hi, until the first). Outside it
	// data == twin, because the copy starts equal and imports write both
	// alike, so the diff scans only the extent (diff).
	lo, hi int
	// spec is the page's speculative diff (PrepareCommit), valid while
	// specOK is set. The invariant: a valid spec always equals
	// computeDiff(data, twin) over the current contents. Local writes
	// invalidate it; remote imports do NOT, because applyWhereClean is
	// diff-preserving — it writes each pulled byte to both data and twin
	// only at positions where data[i] == twin[i], so clean positions stay
	// clean (both take the pulled byte) and dirty positions are untouched
	// in both, leaving the diff byte-identical.
	// TestApplyWhereCleanPreservesDiff/FuzzApplyWhereClean pin this.
	spec   Diff
	specOK bool
	// pf is the page's prefetch state. A prefetched page holds data == twin
	// (no local modifications), which makes it semantically equivalent to a
	// clean page: updates import every remote byte into both copies
	// (applyWhereClean degenerates to a full copy), its diff is empty, and
	// commits drop it before any stats are counted — so prefetching can
	// never change memory contents, commit order, or commit statistics.
	pf uint8
}

// Tid returns the owning thread id.
func (ws *Workspace) Tid() int { return ws.tid }

// Version returns the snapshot version the workspace currently reflects.
func (ws *Workspace) Version() int64 { return ws.version }

// DirtyPages returns the number of pages currently copied-on-write.
func (ws *Workspace) DirtyPages() int { return len(ws.dirty) }

// TakeFaults returns and resets the number of copy-on-write faults since
// the previous call. The runtime charges page-fault costs from this.
func (ws *Workspace) TakeFaults() int64 {
	f := ws.faults
	ws.faults = 0
	return f
}

// SetFaultPerturb installs a per-fault delay source (nil removes it);
// see the faultPerturb field contract. Must be called by the owning
// thread.
func (ws *Workspace) SetFaultPerturb(f func(page int) int64) { ws.faultPerturb = f }

// TakeChaosFaultNS returns and resets the injected fault-servicing delay
// accumulated since the previous call; the runtime charges it alongside
// the modeled fault or prefetch cost it perturbs.
func (ws *Workspace) TakeChaosFaultNS() int64 {
	ns := ws.chaosFaultNS
	ws.chaosFaultNS = 0
	return ns
}

// Read copies len(buf) bytes starting at byte offset off into buf.
// Reads see the thread's own uncommitted stores (store buffer) overlaid on
// the snapshot, which is exactly TSO's read-own-writes-early behaviour.
func (ws *Workspace) Read(buf []byte, off int) {
	ws.checkRange(off, len(buf), "read")
	for len(buf) > 0 {
		pg, po := ws.seg.pageIndex(off)
		n := ws.seg.pageSize - po
		if n > len(buf) {
			n = len(buf)
		}
		var src []byte
		if dp, ok := ws.dirty[pg]; ok {
			src = dp.data
		} else {
			src = ws.seg.committedPage(pg, ws.version)
		}
		copy(buf[:n], src[po:po+n])
		buf = buf[n:]
		off += n
	}
}

// Write stores data at byte offset off, copy-on-write faulting each page on
// first touch.
func (ws *Workspace) Write(data []byte, off int) {
	ws.checkRange(off, len(data), "write")
	for len(data) > 0 {
		pg, po := ws.seg.pageIndex(off)
		n := ws.seg.pageSize - po
		if n > len(data) {
			n = len(data)
		}
		dp := ws.fault(pg)
		if dp.pf != pfNone {
			// First write to a prefetched page: the copy is already here, so
			// no fault was taken — the prefetch hit. It now carries local
			// modifications like any other dirty page, and it belongs in the
			// chunk's write set.
			dp.pf = pfNone
			ws.seg.notePrefetchHits(1)
			if ws.predict {
				ws.chunkWrites = append(ws.chunkWrites, pg)
			}
		}
		dp.specOK = false // the write invalidates any speculative diff
		copy(dp.data[po:po+n], data[:n])
		dp.lo, dp.hi = min(dp.lo, po), max(dp.hi, po+n)
		data = data[n:]
		off += n
	}
}

// fault returns the dirty copy of pg, creating it (and counting a fault) on
// first write, mirroring the kernel's copy-on-write page fault.
func (ws *Workspace) fault(pg int) *dirtyPage {
	if dp, ok := ws.dirty[pg]; ok {
		return dp
	}
	dp := ws.install(pg, pfNone)
	ws.faults++
	ws.seg.noteFault(ws.predict)
	if ws.predict {
		ws.chunkWrites = append(ws.chunkWrites, pg)
	}
	return dp
}

// install makes pg dirty: the one constructor behind both copy-on-write
// faults and prefetches. The data copy comes from the segment's page pool
// and the record from the workspace's free list; the twin shares the
// committed page (see dirtyPage.twin), which the workspace's snapshot
// version keeps alive. The Conversion model still charges two pages, a
// dirty copy and a twin, whether or not the twin is shared
// (Stats.CurPages).
func (ws *Workspace) install(pg int, pf uint8) *dirtyPage {
	base := ws.seg.committedPage(pg, ws.version)
	data := ws.seg.getPage()
	copy(data, base)
	var dp *dirtyPage
	if n := len(ws.freeDirty); n > 0 {
		dp = ws.freeDirty[n-1]
		ws.freeDirty[n-1] = nil
		ws.freeDirty = ws.freeDirty[:n-1]
	} else {
		dp = new(dirtyPage)
	}
	ws.installs++
	// A prefetched page holds data == twin, so its empty diff is already
	// its speculative diff.
	*dp = dirtyPage{page: pg, install: ws.installs, data: data, twin: base, sharedTwin: true,
		lo: len(data), specOK: pf != pfNone, pf: pf}
	ws.dirty[pg] = dp
	ws.dirtyList = append(ws.dirtyList, dp)
	if ws.faultPerturb != nil {
		ws.chaosFaultNS += ws.faultPerturb(pg)
	}
	ws.seg.allocPages(2)
	return dp
}

// ownTwin gives dp a private twin before a remote patch writes it.
func (dp *dirtyPage) ownTwin(s *Segment) {
	if dp.sharedTwin {
		t := s.getPage()
		copy(t, dp.twin)
		dp.twin, dp.sharedTwin = t, false
	}
}

// diff returns computeDiff(data, twin) over the whole page while scanning
// only the write extent, outside which the two are equal.
func (dp *dirtyPage) diff() Diff {
	if dp.lo >= dp.hi {
		return Diff{}
	}
	d := computeDiff(dp.data[dp.lo:dp.hi], dp.twin[dp.lo:dp.hi])
	for i := range d.Runs {
		d.Runs[i].Off += dp.lo
	}
	return d
}

// prepare makes dp's speculative diff valid.
func (dp *dirtyPage) prepare() {
	dp.spec, dp.specOK = dp.diff(), true
}

// release returns dp's private buffers to the segment's page pool: its
// data unless a commit published it, and its twin unless shared. No
// reader can reach them: dirty pages are the workspace's own.
func (dp *dirtyPage) release(s *Segment) {
	if dp.data != nil {
		s.putPage(dp.data)
	}
	if !dp.sharedTwin {
		s.putPage(dp.twin)
	}
}

// drop removes dp from the dirty index and returns its buffers to the
// page pool and its record to the free list. The caller removes it from
// dirtyList.
func (ws *Workspace) drop(dp *dirtyPage) {
	dp.release(ws.seg)
	delete(ws.dirty, dp.page)
	*dp = dirtyPage{}
	ws.freeDirty = append(ws.freeDirty, dp)
}

func (ws *Workspace) checkRange(off, n int, op string) {
	if off < 0 || n < 0 || off+n > ws.seg.size {
		panic(fmt.Sprintf("mem: %s [%d,%d) out of range of segment %q (size %d)",
			op, off, off+n, ws.seg.name, ws.seg.size))
	}
}

// Update advances the workspace to the segment head, importing remotely
// committed changes. Equivalent to UpdateTo with the current head.
func (ws *Workspace) Update() (pulled int) {
	return ws.UpdateTo(1 << 62)
}

// UpdateTo advances the workspace to version `at` (clamped to the current
// head; a no-op if the view is already there or past). Clean pages are
// refreshed implicitly (reads are served from the version chain); dirty
// pages are patched byte-wise so that only locations the local thread has
// not written take the remote values.
//
// The deterministic runtimes use the explicit target for barrier exits: the
// set of versions a thread imports must be fixed by the program's logical
// order, not by how far the head happens to have advanced when the thread
// physically wakes.
//
// It returns the number of distinct pages whose remote modifications were
// imported, which the runtime converts into page-propagation cost and the
// Figure 16 statistic.
func (ws *Workspace) UpdateTo(at int64) (pulled int) {
	s := ws.seg
	s.mu.Lock()
	head := at
	if head > s.head {
		head = s.head
	}
	if head <= ws.version {
		s.mu.Unlock()
		return 0
	}
	patches, pulled := ws.pullLocked(head)
	ws.version = head
	s.mu.Unlock()
	ws.applyPatches(patches)
	s.addPulled(int64(pulled))
	return pulled
}

// pullLocked collects the window (ws.version, to]: it counts the distinct
// pages the window's versions modified, and returns the slots that must
// patch this workspace's dirty pages in version order (the version list's
// order). Each patched page's twin is privatized here, under the segment
// lock and before the caller advances ws.version: once the workspace
// passes a version touching the page, GC may recycle the committed page a
// shared twin references.
func (ws *Workspace) pullLocked(to int64) (patches []*pageSlot, pulled int) {
	s := ws.seg
	if s.pulledAt == nil {
		s.pulledAt = make([]uint32, s.npages)
	}
	if s.pullGen++; s.pullGen == 0 { // wrapped: stale stamps could match
		clear(s.pulledAt)
		s.pullGen = 1
	}
	patches = ws.scratchPatches[:0]
	for i := ws.version - s.floor; i < to-s.floor; i++ {
		if i < 0 {
			// Should not happen: GC never passes a live workspace.
			panic(fmt.Sprintf("mem: workspace for tid %d (version %d) behind GC floor %d", ws.tid, ws.version, s.floor))
		}
		v := s.versions[i]
		for k := range v.slots {
			slot := &v.slots[k]
			if s.pulledAt[slot.page] != s.pullGen {
				s.pulledAt[slot.page] = s.pullGen
				pulled++
			}
			if dp, dirtyHere := ws.dirty[slot.page]; dirtyHere {
				dp.ownTwin(s)
				patches = append(patches, slot)
			}
		}
	}
	ws.scratchPatches = patches
	return patches, pulled
}

// applyPatches imports pulled remote bytes into dirty pages, outside the
// segment lock: diffs are immutable after phase 1 and the pages (with
// their twins, privatized by pullLocked) are the workspace's own.
// applyWhereClean is diff-preserving (see dirtyPage.spec), so speculative
// diffs survive the import. It clears the scratch slice so it retains no
// slots.
func (ws *Workspace) applyPatches(patches []*pageSlot) {
	for _, slot := range patches {
		dp := ws.dirty[slot.page]
		slot.diff.applyWhereClean(dp.data, dp.twin)
	}
	clear(patches)
}

// PrepareCommit speculatively computes the per-page diffs the next
// BeginCommit will need, so that work happens off the serial token path —
// the deterministic runtimes call it while a thread is still waiting for
// its turn in the global order. Pages that already hold a valid
// speculative diff are skipped, so repeated calls are cheap. A later local
// write invalidates a page's speculation (remote imports preserve it — see
// dirtyPage.spec) and BeginCommit re-diffs exactly the invalidated pages,
// making speculation invisible to commit results: version contents are
// byte-identical with and without it.
//
// Must be called by the owning thread; it reads and writes only
// thread-private state, so unlike BeginCommit it needs neither the
// caller's commit serialization nor the segment lock.
//
// Returns the number of pages diffed by this call (the runtime charges
// speculation cost from it).
func (ws *Workspace) PrepareCommit() int {
	prepared := 0
	for _, dp := range ws.dirtyList {
		if !dp.specOK {
			dp.prepare()
			prepared++
		}
	}
	return prepared
}

// SetPredict switches write-set logging and prefetch support on or off.
// While enabled, the workspace records each chunk's written pages (see
// TakeChunkWrites) and BeginCommit retains unwritten prefetched pages for
// one commit instead of dropping them. Off by default; the deterministic
// runtime enables it when write-set prediction is configured.
func (ws *Workspace) SetPredict(on bool) {
	ws.predict = on
	if !on {
		ws.chunkWrites = nil
	}
}

// TakeChunkWrites returns the pages written since the previous call (CoW
// faults plus first writes to prefetched pages, in first-touch order,
// possibly with duplicates across Take boundaries — callers canonicalize)
// and resets the log. The returned slice is only valid until the next
// workspace write: it aliases the log buffer, which is reused. Always
// empty when predict is off.
func (ws *Workspace) TakeChunkWrites() []int {
	w := ws.chunkWrites
	ws.chunkWrites = ws.chunkWrites[:0]
	return w
}

// Prepopulate installs copy-on-write copies of the given pages ahead of
// the writes a predictor expects, so those writes will not fault. It is
// the fault-servicing analogue of PrepareCommit: work hoisted off the
// serial token path into the deterministic-order wait.
//
// Pages already dirty are skipped (a previously prefetched page is
// refreshed to survive the next commit — re-predicting it renews its
// lease). Populated pages take the CoW copy without counting a fault and
// with an empty speculative diff pre-installed (valid because data ==
// twin). A mispredicted page is pure off-token waste: it stays
// byte-identical to the committed state through every update and commit
// patch (applyWhereClean imports all remote bytes into both copies), its
// commit diff is empty, and BeginCommit drops it before any statistic is
// counted — memory contents, commit order, and commit stats are exactly
// as if it had never been prefetched.
//
// Returns the number of pages newly populated (the runtime charges
// prefetch cost from it; refreshes are free — no copy happens).
func (ws *Workspace) Prepopulate(pages []int) (populated int) {
	for _, pg := range pages {
		if pg < 0 || pg >= ws.seg.NumPages() {
			continue
		}
		if dp, ok := ws.dirty[pg]; ok {
			if dp.pf == pfStale {
				dp.pf = pfFresh
			}
			continue
		}
		ws.install(pg, pfFresh)
		populated++
	}
	return populated
}

// Discard drops all uncommitted local modifications.
func (ws *Workspace) Discard() {
	ws.seg.mu.Lock()
	defer ws.seg.mu.Unlock()
	ws.discardLocked()
}

func (ws *Workspace) discardLocked() {
	if n := len(ws.dirtyList); n > 0 {
		for _, dp := range ws.dirtyList {
			ws.drop(dp)
		}
		clear(ws.dirtyList)
		ws.dirtyList = ws.dirtyList[:0]
		ws.seg.allocPages(int64(-2 * n))
	}
}
