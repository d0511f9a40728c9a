package mem

import (
	"errors"
	"testing"
)

// TestPageLimitFreshCommit: at the cap, touching an already-committed
// page stays legal while the first access needing a fresh page fails
// with the typed LimitError and commits nothing.
func TestPageLimitFreshCommit(t *testing.T) {
	m := New()
	if err := m.WriteUint(SharedBase, 7, 8); err != nil {
		t.Fatal(err)
	}
	m.SetPageLimit(m.Footprint())

	if err := m.WriteUint(SharedBase+16, 9, 8); err != nil {
		t.Fatalf("same-page access at the cap must pass: %v", err)
	}
	before := m.Footprint()
	err := m.WriteUint(SharedBase+PageSize, 1, 8)
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("fresh-page access over the cap: got %v, want LimitError", err)
	}
	if le.Limit != m.limit {
		t.Fatalf("LimitError.Limit = %d, want %d", le.Limit, m.limit)
	}
	if m.Footprint() != before {
		t.Fatalf("failed access committed pages: %d -> %d", before, m.Footprint())
	}
	// Loads are quota-checked too: a load is still an implicit commit in
	// a sparse space.
	if _, err := m.ReadUint(SharedBase+2*PageSize, 8); !errors.As(err, &le) {
		t.Fatalf("fresh-page load over the cap: got %v, want LimitError", err)
	}
}

// TestPageLimitBelowFootprint: a cap lowered below the committed
// footprint keeps every committed page readable and writable, across
// page boundaries too; only an access that needs a fresh page fails,
// with the typed LimitError, and it commits nothing.
func TestPageLimitBelowFootprint(t *testing.T) {
	m := New()
	for i := uint64(0); i < 3; i++ {
		if err := m.WriteUint(SharedBase+i*PageSize, i+1, 8); err != nil {
			t.Fatal(err)
		}
	}
	m.SetPageLimit(2)

	for i := uint64(0); i < 3; i++ {
		addr := SharedBase + i*PageSize
		if v, err := m.ReadUint(addr, 8); err != nil || v != i+1 {
			t.Fatalf("committed page %d: read %d, %v; want %d", i, v, err, i+1)
		}
		if err := m.WriteUint(addr+8, 7, 8); err != nil {
			t.Fatalf("committed page %d: write: %v", i, err)
		}
	}
	if _, err := m.AppendBytes(nil, SharedBase+PageSize-4, 8); err != nil {
		t.Fatalf("read across two committed pages: %v", err)
	}

	var le *LimitError
	if err := m.WriteUint(SharedBase+3*PageSize, 1, 8); !errors.As(err, &le) {
		t.Fatalf("fresh page under a lowered cap: got %v, want LimitError", err)
	}
	if _, err := m.AppendBytes(nil, SharedBase+3*PageSize-4, 8); !errors.As(err, &le) {
		t.Fatalf("read reaching a fresh page: got %v, want LimitError", err)
	}
	if m.Footprint() != 3 {
		t.Fatalf("refused accesses committed pages: footprint %d, want 3", m.Footprint())
	}
}

// TestPageLimitSpanningAccess: a multi-page access is admitted only if
// every fresh page it needs fits under the cap.
func TestPageLimitSpanningAccess(t *testing.T) {
	m := New()
	if err := m.WriteUint(SharedBase, 1, 8); err != nil {
		t.Fatal(err)
	}
	m.SetPageLimit(m.Footprint() + 1)

	// Crossing into exactly one fresh page fits.
	buf := make([]byte, 16)
	if err := m.WriteBytes(SharedBase+PageSize-8, buf); err != nil {
		t.Fatalf("one fresh page under the cap: %v", err)
	}
	// A write spanning two further fresh pages does not.
	var le *LimitError
	if err := m.WriteBytes(SharedBase+2*PageSize-8, buf); !errors.As(err, &le) {
		t.Fatalf("two fresh pages over the cap: got %v, want LimitError", err)
	}
}

// TestPageLimitUnlimitedAndReset: zero lifts the cap, and Reset keeps a
// configured cap while dropping the pages.
func TestPageLimitUnlimitedAndReset(t *testing.T) {
	m := New()
	m.SetPageLimit(1)
	if err := m.WriteUint(SharedBase, 1, 8); err != nil {
		t.Fatal(err)
	}
	m.SetPageLimit(0)
	for i := uint64(0); i < 8; i++ {
		if err := m.WriteUint(SharedBase+i*PageSize, i, 8); err != nil {
			t.Fatalf("unlimited write %d: %v", i, err)
		}
	}
	m.SetPageLimit(2)
	m.Reset()
	if m.Footprint() != 0 || m.limit != 2 {
		t.Fatalf("after reset: footprint=%d limit=%d, want 0 and 2", m.Footprint(), m.limit)
	}
	if err := m.WriteBytes(SharedBase, make([]byte, 2*PageSize)); err != nil {
		t.Fatalf("exactly-at-cap commit: %v", err)
	}
	var le *LimitError
	if err := m.WriteUint(SharedBase+2*PageSize, 1, 8); !errors.As(err, &le) {
		t.Fatalf("over-cap after reset: got %v, want LimitError", err)
	}
}

// TestPageLimitSegvPrecedence: an out-of-segment access reports a
// segmentation Fault, not a quota error, even at the cap.
func TestPageLimitSegvPrecedence(t *testing.T) {
	m := New()
	m.SetPageLimit(1)
	var f *Fault
	if err := m.WriteUint(0x10, 1, 8); !errors.As(err, &f) {
		t.Fatalf("unmapped write: got %v, want mem.Fault", err)
	}
}
