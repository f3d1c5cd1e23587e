package mem

import (
	"runtime"
	"testing"
)

// TestPagePathAllocations guards the allocation-light page path: on a
// warmed workspace, a fault cycle (fault, write, PrepareCommit,
// BeginCommit, Complete, GC) and a prefetch cycle (Prepopulate, write,
// commit, GC) draw every page buffer from the segment's free list, every
// dirty-page record from the workspace's free list and every list from
// workspace scratch, so neither allocates anything page-sized. What
// remains is the published version's own storage, pinned at the exact
// count so a new allocation on the path is noticed: the version and its
// slot slice (2), and the diff's run list and its one data buffer (2).
// A commit that publishes nothing — here a store of the byte already
// there, whose page is faulted and then dropped unchanged — allocates
// nothing, and neither does an UpdateTo whose pull patches a dirty page.
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
		}, 4},
		{"prefetch", func() {
			ws.Prepopulate(prefetch)
			one[0]++
			ws.Write(one, pageSize)
			ws.Commit()
			s.GC()
		}, 4},
		{"empty commit", func() {
			ws.Read(one, 0)
			ws.Write(one, 0)
			ws.Commit()
			s.GC()
		}, 0},
	}
	for _, c := range cycles {
		checkAllocs(t, c.name, c.run, c.want)
	}

	// An update whose pull patches a dirty page: a second thread commits
	// the versions up front (each writes page 2, which ws holds dirty),
	// and each run pulls one more of them. Nothing runs GC, since ws pins
	// the versions it has not pulled.
	remote, _ := s.Snapshot(1)
	ws.Update()
	ws.Write(one, 2*pageSize+7)
	const pulls = 8 + 201 // warm-up plus AllocsPerRun's runs+1
	for i := 0; i < pulls; i++ {
		remote.Write([]byte{byte(i + 1)}, 2*pageSize)
		remote.Commit()
	}
	checkAllocs(t, "update into dirty page", func() {
		if ws.UpdateTo(ws.Version()+1) != 1 {
			t.Fatal("update pulled no page")
		}
	}, 0)
}

// checkAllocs warms run up, then requires it to make exactly want
// allocations a call, none of them page-sized.
func checkAllocs(t *testing.T, name string, run func(), want float64) {
	t.Helper()
	for i := 0; i < 8; i++ { // warm the free lists and scratch buffers
		run()
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, run)
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes runs+1 calls.
	perCycle := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("%s: %.0f allocations, %d bytes", name, allocs, perCycle)
	if perCycle >= DefaultPageSize {
		t.Errorf("%s allocates %d bytes, at least a page", name, perCycle)
	}
	if allocs != want {
		t.Errorf("%s makes %.0f allocations, want %.0f", name, allocs, want)
	}
}
