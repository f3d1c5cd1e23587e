package mem

import (
	"runtime"
	"testing"
)

// TestPagePathAllocations guards the allocation-free page path: on a
// warmed workspace, a fault cycle (fault, write, PrepareCommit,
// BeginCommit, Complete, GC) and a prefetch cycle (Prepopulate, write,
// commit, GC) draw every page buffer from the segment's free list and
// return every dead one to it, so neither allocates anything page-sized.
// What remains is bookkeeping, pinned at the exact count so a new
// allocation on the path is noticed: the dirty-page record (1); the diff's
// run list, run bytes and speculative-diff box (3); the pending commit,
// page slot, slot list, version and its page map (6, the map taking two);
// and for the prefetch cycle, which commits without PrepareCommit, the
// list of pages BeginCommit re-diffs (1). Pooling versions, slots and
// diffs would remove the rest.
func TestPagePathAllocations(t *testing.T) {
	const pageSize = DefaultPageSize
	s := newTestSegment(t, 4*pageSize, pageSize)
	ws, _ := s.Snapshot(0)
	ws.SetPredict(true)
	one, prefetch := make([]byte, 1), []int{1}
	cycles := []struct {
		name string
		run  func()
		want float64
	}{
		{"fault", func() {
			one[0]++
			ws.Write(one, 0)
			ws.PrepareCommit()
			ws.BeginCommit().Complete()
			s.GC()
		}, 10},
		{"prefetch", func() {
			ws.Prepopulate(prefetch)
			one[0]++
			ws.Write(one, pageSize)
			ws.Commit()
			s.GC()
		}, 11},
	}
	for _, c := range cycles {
		for i := 0; i < 8; i++ { // warm the free list and scratch buffers
			c.run()
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, c.run)
		runtime.ReadMemStats(&after)
		// AllocsPerRun makes runs+1 calls.
		perCycle := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		t.Logf("%s cycle: %.0f allocations, %d bytes", c.name, allocs, perCycle)
		if perCycle >= pageSize {
			t.Errorf("%s cycle allocates %d bytes, at least a page", c.name, perCycle)
		}
		if allocs != c.want {
			t.Errorf("%s cycle makes %.0f allocations, want %.0f", c.name, allocs, c.want)
		}
	}
}
