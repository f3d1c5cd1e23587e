package mem

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"testing"
)

// fnvRef is hash/fnv's New64a sum of p: the byte-serial reference FNV1a
// must equal.
func fnvRef(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

// hashInputs returns zero, sparse and dense pages plus odd-length and
// misaligned slices of them, so both the zero-word fast path and the
// byte loop (including the sub-word tail) are exercised.
func hashInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(3))
	zero := make([]byte, DefaultPageSize)
	sparse := make([]byte, DefaultPageSize)
	for i := 0; i < 20; i++ {
		sparse[rng.Intn(len(sparse))] = byte(1 + rng.Intn(255))
	}
	dense := make([]byte, DefaultPageSize)
	rng.Read(dense)
	return map[string][]byte{
		"empty":        nil,
		"one zero":     {0},
		"seven zeros":  make([]byte, 7),
		"eight zeros":  make([]byte, 8),
		"zero page":    zero,
		"sparse page":  sparse,
		"dense page":   dense,
		"zero odd":     zero[:4093],
		"sparse odd":   sparse[3:4000],
		"dense odd":    dense[5:1029],
		"word at tail": append(make([]byte, 16), 9),
	}
}

func TestFNV1aMatchesHashFNV(t *testing.T) {
	for name, p := range hashInputs() {
		if got, want := FNV1a(FNVOffset64, p), fnvRef(p); got != want {
			t.Errorf("%s: FNV1a = %#x, hash/fnv = %#x", name, got, want)
		}
		// Continuing the state across any split gives the same hash.
		for _, cut := range []int{0, 1, 8, 13, len(p) / 2, len(p)} {
			if cut > len(p) {
				continue
			}
			if got, want := FNV1a(FNV1a(FNVOffset64, p[:cut]), p[cut:]), fnvRef(p); got != want {
				t.Errorf("%s split at %d: FNV1a = %#x, hash/fnv = %#x", name, cut, got, want)
			}
		}
	}
}

func FuzzFNV1a(f *testing.F) {
	for _, p := range hashInputs() {
		f.Add(p, uint(0))
	}
	f.Add(bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1}, 9), uint(17))
	f.Fuzz(func(t *testing.T, p []byte, cut uint) {
		want := fnvRef(p)
		if got := FNV1a(FNVOffset64, p); got != want {
			t.Fatalf("FNV1a(%x) = %#x, hash/fnv = %#x", p, got, want)
		}
		c := int(cut % uint(len(p)+1))
		if got := FNV1a(FNV1a(FNVOffset64, p[:c]), p[c:]); got != want {
			t.Fatalf("FNV1a split at %d of %x = %#x, hash/fnv = %#x", c, p, got, want)
		}
	})
}

// BenchmarkPageHash compares FNV1a with the byte-serial loop it replaced
// on a 4 KiB page: all zero, sparse (20 nonzero bytes) and dense (random
// bytes, so no zero word and no fast path). The dense case shows the
// zero-word test costs the byte loop nothing measurable.
func BenchmarkPageHash(b *testing.B) {
	in := hashInputs()
	var sink uint64
	for _, name := range []string{"zero page", "sparse page", "dense page"} {
		p := in[name]
		b.Run(name+"/fnv1a", func(b *testing.B) {
			b.SetBytes(int64(len(p)))
			for i := 0; i < b.N; i++ {
				sink += FNV1a(FNVOffset64, p)
			}
		})
		b.Run(name+"/bytewise", func(b *testing.B) {
			b.SetBytes(int64(len(p)))
			for i := 0; i < b.N; i++ {
				h := FNVOffset64
				for _, c := range p {
					h = (h ^ uint64(c)) * fnvPrime64
				}
				sink += h
			}
		})
	}
	benchSink = sink
}

var benchSink uint64
