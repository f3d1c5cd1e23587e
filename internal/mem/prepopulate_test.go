package mem

import (
	"bytes"
	"testing"
)

// TestPrepopulateAvoidsFault: a write landing on a prefetched page takes no
// copy-on-write fault and is counted as a prediction hit.
func TestPrepopulateAvoidsFault(t *testing.T) {
	s := newTestSegment(t, 4*64, 64)
	w0, _ := s.Snapshot(0)
	w0.Write([]byte{7, 7, 7}, 64) // page 1
	w0.Commit()

	w1, _ := s.Snapshot(1)
	w1.SetPredict(true)
	if n := w1.Prepopulate([]int{1}); n != 1 {
		t.Fatalf("Prepopulate = %d, want 1", n)
	}
	// The prefetched copy is the committed state.
	buf := make([]byte, 3)
	w1.Read(buf, 64)
	if !bytes.Equal(buf, []byte{7, 7, 7}) {
		t.Fatalf("prefetched page diverges from committed state: %v", buf)
	}
	faults := s.Stats().Faults
	w1.Write([]byte{9}, 64)
	st := s.Stats()
	if st.Faults != faults {
		t.Error("write to prefetched page faulted")
	}
	if st.PrefetchHits != 1 {
		t.Errorf("PrefetchHits = %d, want 1", st.PrefetchHits)
	}
	if st.PrefetchMisses != 0 {
		t.Errorf("PrefetchMisses = %d, want 0", st.PrefetchMisses)
	}
	// The chunk write log includes the hit (it belongs to the write set).
	if got := w1.TakeChunkWrites(); len(got) != 1 || got[0] != 1 {
		t.Errorf("chunk writes = %v, want [1]", got)
	}
}

// TestPrepopulateInvisibleToCommit: an unwritten prefetched page publishes
// nothing — commit stats and final memory are identical to a run that never
// prefetched.
func TestPrepopulateInvisibleToCommit(t *testing.T) {
	run := func(prefetch bool) (CommitStats, []byte) {
		s := newTestSegment(t, 4*64, 64)
		ws, _ := s.Snapshot(0)
		ws.SetPredict(true)
		if prefetch {
			ws.Prepopulate([]int{1, 2, 3})
		}
		ws.Write([]byte{1, 2, 3}, 0) // page 0 only
		cs := ws.Commit()
		final := make([]byte, 4*64)
		w2, _ := s.Snapshot(1)
		w2.Read(final, 0)
		return cs, final
	}
	csOff, memOff := run(false)
	csOn, memOn := run(true)
	if csOn != csOff {
		t.Errorf("commit stats differ: prefetch %+v, plain %+v", csOn, csOff)
	}
	if !bytes.Equal(memOn, memOff) {
		t.Error("final memory differs with prefetch on")
	}
}

// TestPrepopulateLease: an unwritten prefetched page survives exactly one
// commit; the next commit drops it and counts it wasted — unless a fresh
// prediction renews the lease.
func TestPrepopulateLease(t *testing.T) {
	s := newTestSegment(t, 4*64, 64)
	ws, _ := s.Snapshot(0)
	ws.SetPredict(true)

	ws.Prepopulate([]int{2})
	ws.Write([]byte{1}, 0)
	ws.Commit()
	if ws.DirtyPages() != 1 {
		t.Fatalf("prefetched page did not survive its first commit: %d dirty", ws.DirtyPages())
	}
	if w := s.Stats().PrefetchWasted; w != 0 {
		t.Fatalf("wasted after first commit = %d, want 0", w)
	}

	// Re-predicting the page renews the lease (no copy happens).
	if n := ws.Prepopulate([]int{2}); n != 0 {
		t.Fatalf("refresh counted as populated: %d", n)
	}
	ws.Write([]byte{2}, 0)
	ws.Commit()
	if ws.DirtyPages() != 1 {
		t.Fatal("refreshed page did not survive the second commit")
	}

	// No refresh: the stale page is dropped and counted wasted.
	ws.Write([]byte{3}, 0)
	ws.Commit()
	if ws.DirtyPages() != 0 {
		t.Fatalf("stale prefetched page retained: %d dirty", ws.DirtyPages())
	}
	if w := s.Stats().PrefetchWasted; w != 1 {
		t.Errorf("PrefetchWasted = %d, want 1", w)
	}
}

// TestPrepopulateTracksRemoteCommits: a prefetched page behaves like a
// clean page under Update — remote bytes land in it, and it still
// publishes nothing.
func TestPrepopulateTracksRemoteCommits(t *testing.T) {
	s := newTestSegment(t, 4*64, 64)
	w0, _ := s.Snapshot(0)
	w1, _ := s.Snapshot(1)
	w1.SetPredict(true)
	w1.Prepopulate([]int{1})

	w0.Write([]byte{5, 5}, 64) // remote commit to the prefetched page
	w0.Commit()

	if pulled := w1.Update(); pulled == 0 {
		t.Fatal("Update pulled nothing")
	}
	buf := make([]byte, 2)
	w1.Read(buf, 64)
	if !bytes.Equal(buf, []byte{5, 5}) {
		t.Fatalf("prefetched page missed the remote commit: %v", buf)
	}
	cs := w1.Commit()
	if cs.CommittedPages != 0 {
		t.Errorf("unwritten prefetched page published %d pages", cs.CommittedPages)
	}
}

func TestPrepopulateSkipsOutOfRange(t *testing.T) {
	s := newTestSegment(t, 4*64, 64)
	ws, _ := s.Snapshot(0)
	if n := ws.Prepopulate([]int{-1, 4, 100}); n != 0 {
		t.Fatalf("out-of-range pages populated: %d", n)
	}
	if ws.DirtyPages() != 0 {
		t.Fatal("out-of-range prepopulate left dirty pages")
	}
}

func BenchmarkPrepopulate(b *testing.B) {
	const pages = 64
	s, err := NewSegment(SegmentConfig{Name: "bench", Size: pages * 4096, PageSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	ws, _ := s.Snapshot(0)
	ws.SetPredict(true)
	set := make([]int, pages)
	for i := range set {
		set[i] = i
	}
	b.SetBytes(pages * 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Prepopulate(set)
		ws.Discard()
	}
}
