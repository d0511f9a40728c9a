package perf_test

import (
	"hash/fnv"
	"testing"

	"repro/internal/perf"
)

// cacheStream returns n addresses drawn from a seeded LCG, mixing the
// three access shapes that exercise the cache model: a sequential
// 8-byte walk (mostly hits), twelve lines 32 KiB apart that all map to
// one set of the 512-set model (more lines than ways, so LRU evictions),
// and random lines in a 4 MiB window (mostly misses).
func cacheStream(n int) []uint64 {
	addrs := make([]uint64, n)
	x := uint64(0x5eed)
	seq := uint64(0x0001_0000)
	for i := range addrs {
		x = x*6364136223846793005 + 1442695040888963407
		switch x >> 62 {
		case 0:
			seq += 8
			addrs[i] = seq
		case 1:
			addrs[i] = 0x2000_0040 + (x>>32)%12*32768
		default:
			addrs[i] = 0x3000_0000 + (x>>24)%(4<<20)
		}
	}
	return addrs
}

// TestCacheSequenceGolden pins the model's hit/miss sequence on a fixed
// stream: the miss count and an FNV-64a digest of the hit/miss bits,
// eight accesses per byte. The constants were computed with the
// per-set slice layout the flat arrays replaced.
func TestCacheSequenceGolden(t *testing.T) {
	const (
		wantMisses = 117977
		wantDigest = 0x4886c66f0a72820
	)
	c := perf.NewCache(512, 8, 64)
	h := fnv.New64a()
	misses := 0
	var bits byte
	for i, a := range cacheStream(200_000) {
		bits <<= 1
		if c.Access(a) {
			bits |= 1
		} else {
			misses++
		}
		if i%8 == 7 {
			h.Write([]byte{bits})
			bits = 0
		}
	}
	if misses != wantMisses || h.Sum64() != wantDigest {
		t.Fatalf("misses %d digest %#x, want %d %#x", misses, h.Sum64(), wantMisses, uint64(wantDigest))
	}
}

// BenchmarkCacheAccess measures one cache-model access over the fixed
// stream of TestCacheSequenceGolden.
func BenchmarkCacheAccess(b *testing.B) {
	addrs := cacheStream(1 << 16)
	c := perf.NewCache(512, 8, 64)
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Access(addrs[i&(len(addrs)-1)]) {
			hits++
		}
	}
	if b.N >= len(addrs) && hits == 0 {
		b.Fatal("no hits on a stream with a sequential walk")
	}
}
