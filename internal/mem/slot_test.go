package mem

import (
	"math/rand"
	"slices"
	"testing"
)

// checkSlotLookup drives a segment through a script of sparse commits by
// three threads, GC folds and moves of a fourth, pinning workspace, and
// after every step checks the version slot lookup against a reference
// map of (version, page) -> slot filled at publication:
//
//   - Version.slot (the binary search) finds exactly the reference slots
//     of every retained version, and nothing for other pages;
//   - pageAtLocked, at every retained version and page, returns the slot
//     of the newest version at or below it that touched the page, or the
//     base table's page when none did;
//   - PageIndexes is strictly ascending and names exactly those pages.
//
// GC folds shift s.versions down, so a lookup that indexed versions by a
// stale position would return another version's slot. The first script
// byte picks the GC page budget, so some folds stop part-way.
func checkSlotLookup(t *testing.T, script []byte) {
	t.Helper()
	const (
		pageSize = 64
		npages   = 48
	)
	if len(script) == 0 {
		return
	}
	s, err := NewSegment(SegmentConfig{Name: "slots", Size: npages * pageSize, PageSize: pageSize,
		GCPageBudget: int(script[0] % 4)})
	if err != nil {
		t.Fatal(err)
	}
	var wss [3]*Workspace
	for i := range wss {
		wss[i], _ = s.Snapshot(i)
	}
	pin, _ := s.Snapshot(3)

	type key struct {
		v  int64
		pg int
	}
	ref := map[key]*pageSlot{}
	touched := map[int64][]int{} // version -> ascending pages
	stamp := uint16(0)

	script = script[1:]
	for step := 0; step+2 <= len(script); step += 2 {
		op, x := script[step], int(script[step+1])
		switch op % 4 {
		case 0, 1: // a commit of 1..5 pages, spread by x
			ws := wss[x%len(wss)]
			for k := 0; k <= int(op>>2)%5; k++ {
				stamp++
				pg := (x*7 + k*int(op|1)*13) % npages
				ws.Write([]byte{byte(stamp), byte(stamp >> 8)}, pg*pageSize+k)
			}
			v := ws.BeginCommit().Version()
			if v == nil {
				t.Fatalf("step %d: commit of fresh stamps published nothing", step/2)
			}
			for i := range v.slots {
				ref[key{v.Num, v.slots[i].page}] = &v.slots[i]
				touched[v.Num] = append(touched[v.Num], v.slots[i].page)
			}
			slices.Sort(touched[v.Num])
		case 2:
			s.GC()
		case 3: // move the pin to some version in [its own, head]
			if head := s.Head(); head > pin.Version() {
				pin.UpdateTo(pin.Version() + int64(x)%(head-pin.Version()+1))
			}
		}

		s.mu.Lock()
		for i, v := range s.versions {
			if v.Num != s.floor+1+int64(i) {
				t.Fatalf("step %d: versions[%d] is v%d, floor %d", step/2, i, v.Num, s.floor)
			}
			if got, want := v.PageIndexes(), touched[v.Num]; !slices.Equal(got, want) || !slices.IsSorted(got) {
				t.Fatalf("step %d: v%d PageIndexes %v, want ascending %v", step/2, v.Num, got, want)
			}
			for pg := 0; pg < npages; pg++ {
				if got, want := v.slot(pg), ref[key{v.Num, pg}]; got != want {
					t.Fatalf("step %d: v%d slot(%d) = %p, want %p", step/2, v.Num, pg, got, want)
				}
			}
		}
		for at := s.floor; at <= s.head; at++ {
			for pg := 0; pg < npages; pg++ {
				var want *pageSlot
				for u := at; u > s.floor && want == nil; u-- {
					want = ref[key{u, pg}]
				}
				slot, data := s.pageAtLocked(pg, at)
				if slot != want {
					t.Fatalf("step %d: pageAtLocked(%d, v%d) slot %p, want %p (floor %d)", step/2, pg, at, slot, want, s.floor)
				}
				if slot == nil && (data == nil || (s.base[pg] != nil && &data[0] != &s.base[pg][0])) {
					t.Fatalf("step %d: pageAtLocked(%d, v%d) did not return the base page", step/2, pg, at)
				}
			}
		}
		s.mu.Unlock()
	}
}

// TestSlotLookup runs checkSlotLookup over hand-picked shapes and a fixed
// set of random scripts.
func TestSlotLookup(t *testing.T) {
	cases := []struct {
		name   string
		script []byte
	}{
		{"one page, no GC", []byte{0, 0, 0, 0, 0, 0, 0}},
		{"sparse commits then unlimited GC", []byte{0, 1, 5, 1, 40, 17, 3, 3, 99, 2, 0, 1, 11, 2, 0}},
		{"GC held by the pin, then released", []byte{0, 13, 1, 9, 2, 17, 3, 2, 0, 3, 255, 2, 0, 1, 4}},
		{"budget of one page per fold", []byte{1, 17, 1, 17, 2, 17, 3, 3, 200, 2, 0, 2, 0, 2, 0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkSlotLookup(t, c.script) })
	}
	rng := rand.New(rand.NewSource(11))
	script := make([]byte, 121)
	for trial := 0; trial < 100; trial++ {
		rng.Read(script)
		checkSlotLookup(t, script)
	}
}

func FuzzSlotLookup(f *testing.F) {
	f.Add([]byte{0, 1, 5, 1, 40, 17, 3, 3, 99, 2, 0, 1, 11, 2, 0})
	f.Add([]byte{1, 17, 1, 17, 2, 17, 3, 3, 200, 2, 0, 2, 0, 2, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 241 {
			script = script[:241]
		}
		checkSlotLookup(t, script)
	})
}
