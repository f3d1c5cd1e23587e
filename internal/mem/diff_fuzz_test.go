package mem

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// Byte-at-a-time reference implementations of the word-wide kernels in
// diff.go. The fuzz targets below pin the optimized kernels to these; the
// benchmarks in diff_bench_test.go measure the speedup against them.

func computeDiffRef(cur, twin []byte) Diff {
	var d Diff
	for i := 0; i < len(cur); {
		if cur[i] == twin[i] {
			i++
			continue
		}
		start := i
		for i < len(cur) && cur[i] != twin[i] {
			i++
		}
		d.Runs = append(d.Runs, Run{Off: start, Data: append([]byte(nil), cur[start:i]...)})
	}
	return d
}

func applyWhereCleanRef(d Diff, dst, twin []byte) {
	for _, r := range d.Runs {
		for k, b := range r.Data {
			if dst[r.Off+k] == twin[r.Off+k] {
				dst[r.Off+k] = b
				twin[r.Off+k] = b
			}
		}
	}
}

// clip returns equal-length copies of a and b (truncated to the shorter),
// so fuzz inputs of any shape become a valid cur/twin pair. Lengths not
// divisible by 8 exercise the sub-word tail loops.
func clip(a, b []byte) ([]byte, []byte) {
	n := min(len(a), len(b))
	return append([]byte(nil), a[:n]...), append([]byte(nil), b[:n]...)
}

func fuzzSeedPairs(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1}, []byte{2})
	f.Add([]byte("12345678"), []byte("12345678"))                         // exactly one word, clean
	f.Add([]byte("abcdefgh"), []byte("abcdefgX"))                         // word with tail byte dirty
	f.Add([]byte("123456789abcd"), []byte("x23456789abcY"))               // 13 bytes: word + 5-byte tail
	f.Add(bytes.Repeat([]byte{0xaa}, 64), bytes.Repeat([]byte{0x55}, 64)) // dense
	f.Add(bytes.Repeat([]byte{7}, 31), bytes.Repeat([]byte{7}, 31))       // clean, 8∤31
	f.Add([]byte("same....DIFF....same....X"), []byte("same....diff....same....Y"))
	// Rich dirty-page scripts (see checkDirtyPageScript) for both targets.
	a, b := make([]byte, 3*pageScriptOps), make([]byte, 3*pageScriptOps)
	rng := rand.New(rand.NewSource(1))
	rng.Read(a)
	rng.Read(b)
	f.Add(a, b)
}

// FuzzComputeDiff pins the word-wide diff kernel to the byte-loop
// reference: identical runs (offsets, lengths, bytes) for every cur/twin
// pair, including lengths not divisible by the word size.
func FuzzComputeDiff(f *testing.F) {
	fuzzSeedPairs(f)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		cur, twin := clip(a, b)
		got, want := computeDiff(cur, twin), computeDiffRef(cur, twin)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("computeDiff mismatch\ncur  %x\ntwin %x\ngot  %+v\nwant %+v", cur, twin, got, want)
		}
		// Byte-exactness invariant: runs never include an unchanged byte,
		// and applying the diff to a copy of twin reproduces cur.
		for _, r := range got.Runs {
			for k, by := range r.Data {
				if twin[r.Off+k] == by {
					t.Fatalf("run [%d,+%d) includes unchanged byte at %d", r.Off, len(r.Data), r.Off+k)
				}
			}
		}
		rt := append([]byte(nil), twin...)
		got.apply(rt)
		if !bytes.Equal(rt, cur) {
			t.Fatalf("apply(twin) != cur\ngot  %x\nwant %x", rt, cur)
		}
		checkDirtyPageScript(t, b)
	})
}

// FuzzApplyWhereClean pins the masked word-wide merge to the byte-loop
// reference, and checks the diff-preservation property the speculative
// commit path depends on (see dirtyPage.spec): patching a page pair never
// changes what computeDiff reports for it.
func FuzzApplyWhereClean(f *testing.F) {
	fuzzSeedPairs(f)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		dst, twin := clip(a, b)
		// The incoming diff models a remote commit against the same base:
		// derive it from a scrambled copy so runs land both on clean and on
		// locally-dirty positions.
		remote := append([]byte(nil), twin...)
		for i := range remote {
			if i%3 != 0 {
				remote[i] ^= 0x5a
			}
		}
		d := computeDiffRef(remote, twin)

		dst2 := append([]byte(nil), dst...)
		twin2 := append([]byte(nil), twin...)
		before := computeDiff(dst, twin)

		d.applyWhereClean(dst, twin)
		applyWhereCleanRef(d, dst2, twin2)
		if !bytes.Equal(dst, dst2) || !bytes.Equal(twin, twin2) {
			t.Fatalf("applyWhereClean mismatch\ndst  %x\nref  %x\ntwin %x\nref  %x", dst, dst2, twin, twin2)
		}
		if after := computeDiff(dst, twin); !reflect.DeepEqual(before, after) {
			t.Fatalf("patch changed the local diff\nbefore %+v\nafter  %+v", before, after)
		}
		checkDirtyPageScript(t, a)
	})
}

// pageScriptOps bounds a dirty-page script. Every write stores its step's
// own value, byte(step+1), so with at most 255 steps no store repeats a
// value a byte already holds (twin-diffing cannot see such a store, the
// documented byte-merge artifact, and the flat model below would drift).
const pageScriptOps = 80

// checkDirtyPageScript drives a workspace's dirty pages through an
// interleaving of local writes, remote commits, partial updates,
// prefetches, speculative diffs and local commits decoded from script
// (three bytes a step), with a GC after every commit so committed pages
// are recycled while twins may still share them. After every step it
// checks the invariants the allocation-free page path rests on:
//   - each page's write-bounded diff equals computeDiff(data, twin) over
//     the whole page;
//   - a twin still shared with a committed page never has a byte changed
//     (against a snapshot taken when the page was installed);
//   - a prefetched page's diff stays empty until it is written;
//
// and that the workspace's view equals a flat replay of the committed
// versions overlaid with its own uncommitted stores.
func checkDirtyPageScript(t *testing.T, script []byte) {
	t.Helper()
	const (
		pageSize = 64
		size     = 2 * pageSize
	)
	s, err := NewSegment(SegmentConfig{Name: "script", Size: size, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	local, _ := s.Snapshot(0)
	remote, _ := s.Snapshot(1)
	local.SetPredict(true)
	// states[v] is the flat committed content at version v.
	states := [][]byte{make([]byte, size)}
	pending := map[int]byte{} // local stores not yet committed
	publish := func(writes map[int]byte) {
		next := append([]byte(nil), states[len(states)-1]...)
		for off, v := range writes {
			next[off] = v
		}
		states = append(states, next)
	}
	// installed[pg] is the install number of the record whose twin
	// snaps[pg] holds. Records are recycled, so a reinstall is detected
	// by its install number, not by the record's identity.
	installed := map[int]uint64{}
	snaps := map[int][]byte{}
	view := make([]byte, size)

	for step := 0; step+3 <= len(script) && step/3 < pageScriptOps; step += 3 {
		op, x, y := script[step], int(script[step+1]), int(script[step+2])
		val := byte(step/3 + 1)
		switch op % 6 {
		case 0, 1: // local store of 1..8 bytes
			off, n := x%size, 1+y%8
			n = min(n, size-off)
			local.Write(bytes.Repeat([]byte{val}, n), off)
			for i := off; i < off+n; i++ {
				pending[i] = val
			}
		case 2: // a remote thread commits a store at head
			remote.Update()
			off, n := x%size, 1+y%8
			n = min(n, size-off)
			remote.Write(bytes.Repeat([]byte{val}, n), off)
			remote.Commit()
			writes := map[int]byte{}
			for i := off; i < off+n; i++ {
				writes[i] = val
			}
			publish(writes)
			s.GC()
		case 3: // import some or all of the versions we lag behind
			if head := s.Head(); head > local.Version() {
				local.UpdateTo(local.Version() + 1 + int64(x)%(head-local.Version()))
			}
		case 4: // prefetch a page, or pre-diff speculatively
			if y%2 == 0 {
				local.Prepopulate([]int{x % 2})
			} else {
				local.PrepareCommit()
			}
		case 5: // local commit
			local.Commit()
			if len(pending) > 0 {
				publish(pending)
				pending = map[int]byte{}
			}
			s.GC()
		}

		for pg, dp := range local.dirty {
			if installed[pg] != dp.install {
				installed[pg] = dp.install
				snaps[pg] = append([]byte(nil), dp.twin...)
			}
			if got, want := dp.diff(), computeDiff(dp.data, dp.twin); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d page %d: extent [%d,%d) diff %+v, whole-page diff %+v",
					step/3, pg, dp.lo, dp.hi, got, want)
			}
			if dp.sharedTwin && !bytes.Equal(dp.twin, snaps[pg]) {
				t.Fatalf("step %d page %d: shared twin changed\ngot  %x\nwant %x", step/3, pg, dp.twin, snaps[pg])
			}
			if dp.pf != pfNone && (!dp.diff().Empty() || !dp.specOK || !dp.spec.Empty()) {
				t.Fatalf("step %d page %d: unwritten prefetched page has a diff", step/3, pg)
			}
		}
		local.Read(view, 0)
		want := append([]byte(nil), states[local.Version()]...)
		for off, v := range pending {
			want[off] = v
		}
		if !bytes.Equal(view, want) {
			t.Fatalf("step %d: view at v%d\ngot  %x\nwant %x", step/3, local.Version(), view, want)
		}
	}
	local.Commit()
	if len(pending) > 0 {
		publish(pending)
	}
	got := make([]byte, size)
	s.ReadCommitted(got, 0, s.Head())
	if want := states[len(states)-1]; s.Head() != int64(len(states)-1) || !bytes.Equal(got, want) {
		t.Fatalf("final state at v%d (model v%d)\ngot  %x\nwant %x", s.Head(), len(states)-1, got, want)
	}
}

// TestDirtyPageInterleavings runs checkDirtyPageScript over a fixed set of
// random scripts, so tier-1 covers the interleavings without fuzzing.
func TestDirtyPageInterleavings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	script := make([]byte, 3*pageScriptOps)
	for trial := 0; trial < 300; trial++ {
		rng.Read(script)
		checkDirtyPageScript(t, script)
	}
}

// TestApplyWhereCleanPreservesDiff is the deterministic statement of the
// preservation property for a hand-built case: a pulled run overlapping a
// locally dirty stretch takes effect only at clean bytes, and the local
// diff is byte-identical before and after.
func TestApplyWhereCleanPreservesDiff(t *testing.T) {
	twin := []byte("0123456789abcdef0123456789abcdef") // 32 bytes
	dst := append([]byte(nil), twin...)
	copy(dst[10:14], "WXYZ") // local store buffer: bytes 10..13 dirty

	d := Diff{Runs: []Run{{Off: 8, Data: []byte("remotekin")}}} // pulls 8..16
	before := computeDiff(dst, twin)

	d.applyWhereClean(dst, twin)

	if !bytes.Equal(dst[10:14], []byte("WXYZ")) {
		t.Errorf("local writes clobbered: %q", dst[10:14])
	}
	if !bytes.Equal(dst[8:10], []byte("re")) || !bytes.Equal(dst[14:17], []byte("kin")) {
		t.Errorf("clean bytes not imported: %q", dst[8:17])
	}
	if !bytes.Equal(dst[8:10], twin[8:10]) || !bytes.Equal(dst[14:17], twin[14:17]) {
		t.Error("twin not kept in sync at imported bytes")
	}
	after := computeDiff(dst, twin)
	if !reflect.DeepEqual(before, after) {
		t.Errorf("import changed the local diff\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestNonzeroByteMask exercises the exact per-byte mask on every byte
// pattern in one lane plus mixed-lane words.
func TestNonzeroByteMask(t *testing.T) {
	for v := 0; v < 256; v++ {
		want := uint64(0)
		if v != 0 {
			want = 0xff
		}
		if got := nonzeroByteMask(uint64(v)) & 0xff; got != want {
			t.Fatalf("nonzeroByteMask(%#x) low byte = %#x, want %#x", v, got, want)
		}
	}
	cases := map[uint64]uint64{
		0x0000000000000000: 0x0000000000000000,
		0x0100000000000080: 0xff000000000000ff,
		0x80007f0001ff0000: 0xff00ff00ffff0000,
		0xffffffffffffffff: 0xffffffffffffffff,
	}
	for x, want := range cases {
		if got := nonzeroByteMask(x); got != want {
			t.Errorf("nonzeroByteMask(%#016x) = %#016x, want %#016x", x, got, want)
		}
	}
}
