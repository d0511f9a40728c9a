package mem_test

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/pa"
)

func TestScalarRoundTrip(t *testing.T) {
	m := mem.New()
	f := func(off uint32, v uint64) bool {
		addr := mem.SharedBase + uint64(off%1_000_000)
		for _, n := range []int{1, 2, 4, 8} {
			if err := m.WriteUint(addr, v, n); err != nil {
				return false
			}
			got, err := m.ReadUint(addr, n)
			if err != nil {
				return false
			}
			mask := ^uint64(0)
			if n < 8 {
				mask = (1 << uint(8*n)) - 1
			}
			if got != v&mask {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBytesAcrossPageBoundary(t *testing.T) {
	m := mem.New()
	data := bytes.Repeat([]byte{0xAB, 0xCD, 0xEF}, 3000) // spans >2 pages
	addr := mem.GlobalBase + 4090                        // straddles a 4K boundary
	if err := m.WriteBytes(addr, data); err != nil {
		t.Fatal(err)
	}
	got, err := m.AppendBytes(nil, addr, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page round trip mismatch")
	}
}

func TestLittleEndian(t *testing.T) {
	m := mem.New()
	if err := m.WriteUint(mem.GlobalBase, 0x0102030405060708, 8); err != nil {
		t.Fatal(err)
	}
	b, err := m.AppendBytes(nil, mem.GlobalBase, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{8, 7, 6, 5, 4, 3, 2, 1}
	if !bytes.Equal(b, want) {
		t.Fatalf("byte order %v, want %v", b, want)
	}
}

func TestFaults(t *testing.T) {
	m := mem.New()
	cases := []struct {
		name string
		addr uint64
		op   func() error
	}{
		{"unmapped-low", 0x10, func() error { _, e := m.AppendBytes(nil, 0x10, 1); return e }},
		{"unmapped-hole", 0x1000_0000, func() error { return m.WriteUint(0x1000_0000, 1, 8) }},
		{"above-stack", mem.StackTop + 8, func() error { return m.WriteUint(mem.StackTop+8, 1, 8) }},
		{"below-stack-limit", mem.StackLimit - 8, func() error { return m.WriteUint(mem.StackLimit-8, 1, 8) }},
		{"code-write", mem.CodeBase, func() error { return m.WriteUint(mem.CodeBase, 1, 8) }},
		{"poisoned", mem.SharedBase | pa.PoisonBit, func() error { _, e := m.AppendBytes(nil, mem.SharedBase|pa.PoisonBit, 1); return e }},
		{"non-canonical", mem.SharedBase | (1 << 45), func() error { _, e := m.AppendBytes(nil, mem.SharedBase|(1<<45), 1); return e }},
		{"wraparound", ^uint64(0) & pa.AddrMask, func() error { _, e := m.AppendBytes(nil, ^uint64(0)&pa.AddrMask, 16); return e }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.op()
			if err == nil {
				t.Fatalf("access at %#x should fault", tc.addr)
			}
			if _, ok := err.(*mem.Fault); !ok {
				t.Fatalf("error type %T, want *mem.Fault", err)
			}
		})
	}
}

func TestCodeIsReadable(t *testing.T) {
	m := mem.New()
	if _, err := m.AppendBytes(nil, mem.CodeBase, 8); err != nil {
		t.Fatalf("code reads should succeed: %v", err)
	}
}

func TestReadCString(t *testing.T) {
	m := mem.New()
	if err := m.WriteBytes(mem.GlobalBase, []byte("hello\x00world")); err != nil {
		t.Fatal(err)
	}
	s, err := m.ReadCString(mem.GlobalBase, 64)
	if err != nil {
		t.Fatal(err)
	}
	if s != "hello" {
		t.Fatalf("cstring = %q", s)
	}
	// Unterminated within max: returns what it saw.
	s, err = m.ReadCString(mem.GlobalBase, 3)
	if err != nil || s != "hel" {
		t.Fatalf("bounded cstring = %q, %v", s, err)
	}
}

func TestSegmentPredicates(t *testing.T) {
	if !mem.InShared(mem.SharedBase) || mem.InShared(mem.IsolatedBase) {
		t.Fatal("InShared misclassifies")
	}
	if !mem.InIsolated(mem.IsolatedBase) || mem.InIsolated(mem.SharedBase) {
		t.Fatal("InIsolated misclassifies")
	}
	if !mem.InStack(mem.StackTop-8) || mem.InStack(mem.StackTop) {
		t.Fatal("InStack misclassifies")
	}
	if !mem.InGlobal(mem.GlobalBase) || mem.InGlobal(mem.CodeBase) {
		t.Fatal("InGlobal misclassifies")
	}
}

func TestSegmentName(t *testing.T) {
	cases := []struct {
		addr uint64
		want string
	}{
		{mem.CodeBase, "code"},
		{mem.GlobalBase, "globals"},
		{mem.SharedBase + 64, "shared-heap"},
		{mem.IsolatedBase, "isolated-heap"},
		{mem.StackTop - 8, "stack"},
		{16, "unmapped"},
		{mem.GlobalLimit, "unmapped"}, // gap between globals and the heaps
		{1 << 44, "non-canonical"},    // PAC bits set
	}
	for _, c := range cases {
		if got := mem.SegmentName(c.addr); got != c.want {
			t.Errorf("SegmentName(%#x) = %q, want %q", c.addr, got, c.want)
		}
	}
}

func TestIsolationDistance(t *testing.T) {
	// The heap sectioning guarantee: a linear overflow from anywhere in
	// the shared segment can never reach the isolated segment without
	// first leaving the mapped shared range (and faulting).
	if mem.SharedLimit > mem.IsolatedBase {
		t.Fatal("shared heap overlaps the isolated section")
	}
}

func TestResetAndFootprint(t *testing.T) {
	m := mem.New()
	if err := m.WriteUint(mem.GlobalBase, 1, 8); err != nil {
		t.Fatal(err)
	}
	if m.Footprint() == 0 {
		t.Fatal("footprint should count committed pages")
	}
	m.Reset()
	if m.Footprint() != 0 {
		t.Fatal("reset should drop pages")
	}
	v, err := m.ReadUint(mem.GlobalBase, 8)
	if err != nil || v != 0 {
		t.Fatal("fresh page should read zero")
	}
}

func TestScalarAcrossPageBoundary(t *testing.T) {
	// Scalars that straddle a 4 KiB boundary must take the multi-page
	// slow path and still round-trip (regression test for the
	// single-page fast path in ReadUint/WriteUint).
	m := mem.New()
	for _, n := range []int{2, 4, 8} {
		for back := 1; back < n; back++ {
			addr := mem.SharedBase + 4096 - uint64(back)
			want := uint64(0x1122334455667788)
			if err := m.WriteUint(addr, want, n); err != nil {
				t.Fatalf("write n=%d back=%d: %v", n, back, err)
			}
			got, err := m.ReadUint(addr, n)
			if err != nil {
				t.Fatalf("read n=%d back=%d: %v", n, back, err)
			}
			mask := ^uint64(0)
			if n < 8 {
				mask = (1 << uint(8*n)) - 1
			}
			if got != want&mask {
				t.Fatalf("n=%d back=%d: got %#x want %#x", n, back, got, want&mask)
			}
			// The bytes on each side of the boundary must match the
			// little-endian encoding, not just the re-read.
			b, err := m.AppendBytes(nil, addr, n)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if b[i] != byte(want>>(8*uint(i))) {
					t.Fatalf("n=%d back=%d byte %d = %#x", n, back, i, b[i])
				}
			}
		}
	}
}

func TestBytesSpanStopsAtSegmentEnd(t *testing.T) {
	// A range crossing out of its segment must fault up front — the
	// single range check must be as strict as the old per-byte walk.
	m := mem.New()
	addr := mem.GlobalLimit - 8
	if err := m.WriteBytes(addr, make([]byte, 16)); err == nil {
		t.Fatal("write spanning past the global segment should fault")
	}
	if _, err := m.AppendBytes(nil, addr, 16); err == nil {
		t.Fatal("read spanning past the global segment should fault")
	}
	// The in-segment prefix alone is fine.
	if err := m.WriteBytes(addr, make([]byte, 8)); err != nil {
		t.Fatalf("in-segment write: %v", err)
	}
}

func TestReadCStringAcrossPages(t *testing.T) {
	// A string whose NUL lives on a later page exercises the page-run
	// scan in ReadCString.
	m := mem.New()
	long := bytes.Repeat([]byte{'x'}, 5000)
	addr := mem.SharedBase + 4000 // starts near a page boundary
	if err := m.WriteBytes(addr, append(long, 0)); err != nil {
		t.Fatal(err)
	}
	s, err := m.ReadCString(addr, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != len(long) {
		t.Fatalf("len = %d, want %d", len(s), len(long))
	}
}

func TestPageCacheInvalidatedByReset(t *testing.T) {
	// The one-entry page cache must not resurrect a page dropped by
	// Reset.
	m := mem.New()
	if err := m.WriteUint(mem.SharedBase, 42, 8); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ReadUint(mem.SharedBase, 8); v != 42 {
		t.Fatal("warm-up read failed")
	}
	m.Reset()
	v, err := m.ReadUint(mem.SharedBase, 8)
	if err != nil || v != 0 {
		t.Fatalf("post-reset read = %d, %v; want 0", v, err)
	}
}

// BenchmarkMemReadWriteUint measures one 8-byte store and one 8-byte
// load, the VM's scalar access pair, walking a 64 KiB stack window so
// the one-entry page cache sees page transitions.
func BenchmarkMemReadWriteUint(b *testing.B) {
	m := mem.New()
	base := mem.StackTop - 64<<10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := base + uint64(i*8)%(64<<10)
		if err := m.WriteUint(addr, uint64(i), 8); err != nil {
			b.Fatal(err)
		}
		if v, err := m.ReadUint(addr, 8); err != nil || v != uint64(i) {
			b.Fatalf("read %d, %v", v, err)
		}
	}
}
