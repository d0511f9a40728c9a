// Package mem implements the simulated 64-bit address space the VM and
// heap allocator run on: sparse 4 KiB pages, named segments with
// permissions, little-endian scalar access, and segmentation faults for
// out-of-segment or poisoned addresses.
//
// Layout (canonical 40-bit space, upper 24 bits reserved for the PAC):
//
//	0x0000_1000  code        (function entry markers; not executed from)
//	0x0001_0000  globals
//	0x2000_0000  shared heap      (default malloc arena)
//	0x3000_0000  isolated heap    (Pythia secure_malloc arena, §4.3)
//	0x7f00_0000  stack (grows down from StackTop)
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/pa"
)

// Segment boundaries of the simulated address space.
const (
	CodeBase     = uint64(0x0000_1000)
	GlobalBase   = uint64(0x0001_0000)
	GlobalLimit  = uint64(0x0100_0000)
	SharedBase   = uint64(0x2000_0000)
	SharedLimit  = uint64(0x2800_0000)
	IsolatedBase = uint64(0x3000_0000)
	IsolatedLim  = uint64(0x3800_0000)
	StackLimit   = uint64(0x7000_0000) // lowest legal stack address
	StackTop     = uint64(0x7f00_0000)
)

const pageSize = 4096

// PageSize is the simulated page granularity, for callers expressing
// memory quotas in pages (vm.Config.MaxPages, pythiad -max-pages).
const PageSize = pageSize

// Fault is a memory access violation; the VM reports it as a crash of
// the simulated program (the detection signal for most defenses).
type Fault struct {
	Addr uint64
	Op   string // "load", "store"
	Why  string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("mem: %s fault at %#x: %s", f.Op, f.Addr, f.Why)
}

// LimitError reports an access that would commit a page beyond the
// space's configured page quota — the simulated analogue of the kernel
// refusing to grow a cgroup-limited process. It is a distinct type from
// Fault so the VM can classify quota exhaustion as its own fault kind
// (out-of-memory) instead of a segmentation fault.
type LimitError struct {
	Addr  uint64
	Op    string // "load", "store"
	Limit int    // the quota, in pages
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("mem: %s at %#x exceeds page quota (%d pages = %d bytes committed)",
		e.Op, e.Addr, e.Limit, e.Limit*pageSize)
}

// Memory is a sparse paged byte store. A one-entry page cache short-
// circuits the page-map lookup for the overwhelmingly common case of
// consecutive accesses landing on the same 4 KiB page (stack frames,
// buffer fills), so scalar loads/stores on the VM hot path touch the Go
// map only on page transitions.
type Memory struct {
	pages    map[uint64]*[pageSize]byte
	lastBase uint64
	lastPage *[pageSize]byte
	// limit caps the number of committed pages; 0 is unlimited. Accesses
	// that would allocate past the cap fail with a LimitError before any
	// page is committed, so a quota-exceeding run leaves memory intact.
	limit int
}

// New returns an empty address space.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

// Reset drops every page, returning the memory to its initial state.
// A configured page limit survives the reset.
func (m *Memory) Reset() {
	m.pages = make(map[uint64]*[pageSize]byte)
	m.lastPage = nil
	m.lastBase = 0
}

// SetPageLimit caps the committed-page count at n (0 lifts the cap).
// Pages already committed stay accessible even when they exceed a
// newly lowered cap; only fresh commits are refused, so callers can
// lay out an image first and quota runtime growth afterwards.
func (m *Memory) SetPageLimit(n int) { m.limit = n }

func (m *Memory) page(addr uint64) *[pageSize]byte {
	base := addr &^ uint64(pageSize-1)
	if m.lastPage != nil && base == m.lastBase {
		return m.lastPage
	}
	p, ok := m.pages[base]
	if !ok {
		p = new([pageSize]byte)
		m.pages[base] = p
	}
	m.lastBase, m.lastPage = base, p
	return p
}

// check validates an access of size n at addr.
func (m *Memory) check(addr uint64, n int, op string) error {
	if pa.IsPoisoned(addr) {
		return &Fault{Addr: addr, Op: op, Why: "poisoned pointer (failed authentication)"}
	}
	if addr&^pa.AddrMask != 0 {
		return &Fault{Addr: addr, Op: op, Why: "non-canonical address (unstripped PAC?)"}
	}
	end := addr + uint64(n)
	if end < addr {
		return &Fault{Addr: addr, Op: op, Why: "address wraparound"}
	}
	switch {
	case addr >= CodeBase && end <= GlobalBase:
		if op == "store" {
			return &Fault{Addr: addr, Op: op, Why: "write to code segment"}
		}
	case addr >= GlobalBase && end <= GlobalLimit:
	case addr >= SharedBase && end <= SharedLimit:
	case addr >= IsolatedBase && end <= IsolatedLim:
	case addr >= StackLimit && end <= StackTop:
	default:
		return &Fault{Addr: addr, Op: op, Why: "unmapped segment"}
	}
	return m.checkLimit(addr, end, op)
}

// checkLimit enforces the page quota for an in-segment access of
// [addr, end). The fast path — no limit, or comfortably under it — is
// two comparisons; only accesses that could push past the cap pay the
// per-page map probes to count how many pages they would freshly commit.
// An access that commits no fresh page always passes, so committed
// pages stay reachable under a cap lowered below the footprint.
func (m *Memory) checkLimit(addr, end uint64, op string) error {
	if m.limit <= 0 || end <= addr { // zero-length accesses commit nothing
		return nil
	}
	first := addr &^ uint64(pageSize-1)
	last := (end - 1) &^ uint64(pageSize-1)
	span := int((last-first)/pageSize) + 1
	if len(m.pages)+span <= m.limit {
		return nil
	}
	fresh := 0
	for b := first; ; b += pageSize {
		if _, ok := m.pages[b]; !ok {
			fresh++
		}
		if b == last {
			break
		}
	}
	if fresh > 0 && len(m.pages)+fresh > m.limit {
		return &LimitError{Addr: addr, Op: op, Limit: m.limit}
	}
	return nil
}

// readInto fills out from [addr, addr+len(out)) one page run at a time.
// The caller has already validated the range with check.
func (m *Memory) readInto(out []byte, addr uint64) {
	for i := 0; i < len(out); {
		a := addr + uint64(i)
		p := m.page(a)
		off := int(a % pageSize)
		i += copy(out[i:], p[off:])
	}
}

// writeFrom stores b at addr one page run at a time. The caller has
// already validated the range with check.
func (m *Memory) writeFrom(addr uint64, b []byte) {
	for i := 0; i < len(b); {
		a := addr + uint64(i)
		p := m.page(a)
		off := int(a % pageSize)
		i += copy(p[off:], b[i:])
	}
}

// AppendBytes appends the n bytes at addr to dst and returns the
// extended slice. The segment and poison checks run once for the whole
// range, and a negative or wrapping n faults; the copy then proceeds in
// page runs (segment boundaries are page-aligned, so a per-run re-check
// would be redundant). A caller that passes its previous result back
// as dst[:0] reads without allocating once the buffer is large enough.
func (m *Memory) AppendBytes(dst []byte, addr uint64, n int) ([]byte, error) {
	if err := m.check(addr, n, "load"); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, n)
	m.readInto(dst[len(dst):len(dst)+n], addr)
	return dst[:len(dst)+n], nil
}

// WriteBytes stores b at addr.
func (m *Memory) WriteBytes(addr uint64, b []byte) error {
	if err := m.check(addr, len(b), "store"); err != nil {
		return err
	}
	m.writeFrom(addr, b)
	return nil
}

// ReadUint reads an n-byte little-endian unsigned scalar (n ∈ 1,2,4,8).
// Scalars that fit inside one page — nearly all of them — decode
// straight from the page array without allocating.
func (m *Memory) ReadUint(addr uint64, n int) (uint64, error) {
	if err := m.check(addr, n, "load"); err != nil {
		return 0, err
	}
	if off := int(addr % pageSize); off+n <= pageSize {
		p := m.page(addr)
		switch n {
		case 8:
			return binary.LittleEndian.Uint64(p[off:]), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:])), nil
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:])), nil
		case 1:
			return uint64(p[off]), nil
		}
	}
	var buf [8]byte
	m.readInto(buf[:n], addr)
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// WriteUint stores an n-byte little-endian scalar.
func (m *Memory) WriteUint(addr uint64, v uint64, n int) error {
	if err := m.check(addr, n, "store"); err != nil {
		return err
	}
	if off := int(addr % pageSize); off+n <= pageSize {
		p := m.page(addr)
		switch n {
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
			return nil
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
			return nil
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
			return nil
		case 1:
			p[off] = byte(v)
			return nil
		}
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	m.writeFrom(addr, buf[:n])
	return nil
}

// ReadCString reads a NUL-terminated string starting at addr, bounded by
// max bytes (a safety net for runaway simulated strings). It scans one
// page run at a time with a single access check per run rather than a
// check per byte; when no NUL appears within max bytes the accumulated
// prefix is returned, matching the historical byte-at-a-time behaviour.
func (m *Memory) ReadCString(addr uint64, max int) (string, error) {
	var out []byte
	for i := 0; i < max; {
		a := addr + uint64(i)
		if err := m.check(a, 1, "load"); err != nil {
			return "", err
		}
		p := m.page(a)
		off := int(a % pageSize)
		run := pageSize - off
		if rem := max - i; run > rem {
			run = rem
		}
		chunk := p[off : off+run]
		if j := bytes.IndexByte(chunk, 0); j >= 0 {
			return string(append(out, chunk[:j]...)), nil
		}
		out = append(out, chunk...)
		i += run
	}
	return string(out), nil
}

// InSegment helpers used by the allocator, attack engine, and reports.
func InShared(addr uint64) bool   { return addr >= SharedBase && addr < SharedLimit }
func InIsolated(addr uint64) bool { return addr >= IsolatedBase && addr < IsolatedLim }
func InStack(addr uint64) bool    { return addr >= StackLimit && addr < StackTop }
func InGlobal(addr uint64) bool   { return addr >= GlobalBase && addr < GlobalLimit }

// SegmentName classifies addr by the layout above, for diagnostics and
// fault forensics. Addresses with PAC bits set are "non-canonical" (the
// classic symptom of dereferencing an unauthenticated pointer).
func SegmentName(addr uint64) string {
	switch {
	case addr>>40 != 0:
		return "non-canonical"
	case addr >= CodeBase && addr < GlobalBase:
		return "code"
	case InGlobal(addr):
		return "globals"
	case InShared(addr):
		return "shared-heap"
	case InIsolated(addr):
		return "isolated-heap"
	case InStack(addr):
		return "stack"
	default:
		return "unmapped"
	}
}

// Footprint returns the number of committed pages (a proxy for RSS).
func (m *Memory) Footprint() int { return len(m.pages) }
