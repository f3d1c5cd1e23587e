package mem

import "encoding/binary"

// FNV-1a 64-bit parameters, as in hash/fnv's New64a.
const (
	// FNVOffset64 is the FNV-1a offset basis: the state to start FNV1a
	// from.
	FNVOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
	// fnvPrime64Pow8 is fnvPrime64^8 mod 2^64. FNV-1a over a zero byte is
	// a bare multiply by the prime (h ^ 0 == h), so eight zero bytes are
	// one multiply by this.
	fnvPrime64Pow8 uint64 = 0x1efac7090aef4a21
)

// FNV1a continues the 64-bit FNV-1a hash state h over p and returns the
// new state: FNV1a(FNVOffset64, p) equals hash/fnv's New64a sum of p, and
// FNV1a(FNV1a(h, a), b) == FNV1a(h, a+b). Committed pages are mostly
// zero, so each all-zero 8-byte word takes one multiply instead of eight
// xor-multiply steps; other words take the byte loop, and the value is
// exactly the byte-serial one (TestFNV1aMatchesHashFNV, FuzzFNV1a).
// Every page hash and memory checksum in the runtime, the commit log and
// the replicas goes through it.
func FNV1a(h uint64, p []byte) uint64 {
	for len(p) >= wordBytes {
		if binary.LittleEndian.Uint64(p) == 0 {
			h *= fnvPrime64Pow8
		} else {
			for _, b := range p[:wordBytes] {
				h = (h ^ uint64(b)) * fnvPrime64
			}
		}
		p = p[wordBytes:]
	}
	for _, b := range p {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}
