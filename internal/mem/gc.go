package mem

// GC squashes fully-visible versions into the segment's flat base table,
// freeing superseded pages. A version is collectible once every live
// workspace's snapshot is at or past it and its merge phase has completed.
//
// A superseded base page goes back to the page pool. No reader can reach
// it. Folding version v needs every workspace at or past v, and a
// workspace reads (or faults) a page only at its own snapshot version,
// finishing before it advances, so no workspace reads v's predecessor
// pages any more. A dirty page's shared twin was privatized when its
// workspace pulled v (see Workspace.pullLocked). The conflict merges of v
// itself, the only readers of its slots' prev pages, are resolved before
// v may fold. A Version handle's pages are read only while its committer
// pins it (see Version.ForEachPageHash), and ReadCommitted, pinned by no
// workspace, copies under the segment lock held here. The zero page is never in the
// base table, so it is never recycled. A folded version's diffs are left
// to the Go collector, not recycled (see computeDiff).
//
// The per-invocation reclaim budget (SegmentConfig.GCPageBudget) models the
// paper's single-threaded Conversion collector: programs that allocate and
// free pages faster than one collector thread can fold them accumulate
// retained versions, which is exactly the canneal / lu_ncb memory blowup in
// Figure 12.
//
// GC returns the number of pages reclaimed.
func (s *Segment) GC() int {
	s.mu.Lock()
	defer s.mu.Unlock()

	limit := s.minWorkspaceVersionLocked()
	budget := s.stats.GCPageBudget
	reclaimed := 0
	folded := 0
	for s.floor < limit && folded < len(s.versions) {
		v := s.versions[folded]
		if v.Pending() {
			break
		}
		if budget > 0 && reclaimed >= budget {
			break
		}
		for i := range v.slots {
			slot := &v.slots[i]
			pg := slot.page
			if old := s.base[pg]; old != nil {
				reclaimed++ // superseded base page freed
				s.allocPages(-1)
				s.putPage(old)
			}
			s.base[pg] = slot.data
			// Drop the chain link: anything at or below the new floor is
			// reachable through the base table.
			slot.prev = nil
		}
		s.floor++
		folded++
	}
	if folded == 0 {
		return 0
	}
	// Shift the retained tail down rather than reslicing past the folded
	// head, so the chain's backing array is reused by later commits.
	n := copy(s.versions, s.versions[folded:])
	clear(s.versions[n:])
	s.versions = s.versions[:n]
	s.statsMu.Lock()
	s.stats.GCRuns++
	s.stats.GCReclaimedPages += int64(reclaimed)
	s.statsMu.Unlock()
	return reclaimed
}

// RetainedVersions reports how many versions are currently held in the
// delta chain (committed but not yet folded into the base table).
func (s *Segment) RetainedVersions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.versions)
}
