// Package heap implements the dynamic memory allocator of the simulated
// machine: a glibc-malloc-style design (size-class bins, chunk splitting,
// boundary coalescing, a wilderness "top" chunk), plus the Sectioned
// variant Pythia links in: a second, address-disjoint isolated arena that
// backs secure_malloc so overflows from the shared heap cannot reach
// vulnerable objects (paper §4.3, Alg. 4).
package heap

import (
	"fmt"
	"sort"
)

const (
	chunkAlign = 16
	minChunk   = 32
)

// Stats aggregates allocator activity for the experiment reports.
type Stats struct {
	Allocs     int
	Frees      int
	BytesInUse int64
	PeakInUse  int64
	Splits     int
	Coalesces  int
	BinHits    int
	TopAllocs  int
}

// Arena is one contiguous allocation region managed with size-class bins
// and boundary-tag coalescing.
type Arena struct {
	Name  string
	base  uint64
	limit uint64
	top   uint64 // start of the wilderness

	bins    map[int64][]uint64 // size class -> free chunk addresses (LIFO)
	freeAt  map[uint64]int64   // free chunk start -> size
	freeEnd map[uint64]uint64  // free chunk end -> start (for backward merge)
	sizes   map[uint64]int64   // allocated chunk start -> size

	stats Stats
}

// NewArena returns an arena managing [base, limit).
func NewArena(name string, base, limit uint64) *Arena {
	return &Arena{
		Name:    name,
		base:    base,
		limit:   limit,
		top:     base,
		bins:    make(map[int64][]uint64),
		freeAt:  make(map[uint64]int64),
		freeEnd: make(map[uint64]uint64),
		sizes:   make(map[uint64]int64),
	}
}

// roundSize converts a request to its chunk size class.
func roundSize(n int64) int64 {
	if n < minChunk {
		n = minChunk
	}
	return (n + chunkAlign - 1) &^ (chunkAlign - 1)
}

// Alloc reserves size bytes and returns the chunk address, or an error
// when the arena is exhausted.
func (a *Arena) Alloc(size int64) (uint64, error) {
	if size <= 0 {
		size = 1
	}
	sz := roundSize(size)

	// Exact-fit bin first (glibc fastbin/smallbin behaviour).
	if lst := a.bins[sz]; len(lst) > 0 {
		addr := lst[len(lst)-1]
		a.bins[sz] = lst[:len(lst)-1]
		a.unfree(addr, sz)
		a.claim(addr, sz)
		a.stats.BinHits++
		return addr, nil
	}
	// Best-fit search over larger bins, splitting the remainder.
	if addr, have := a.bestFit(sz); have != 0 {
		a.removeFromBin(addr, have)
		a.unfree(addr, have)
		if have-sz >= minChunk {
			a.insertFree(addr+uint64(sz), have-sz)
			a.stats.Splits++
			have = sz
		}
		a.claim(addr, have)
		return addr, nil
	}
	// Extend from the wilderness.
	if a.top+uint64(sz) > a.limit {
		return 0, fmt.Errorf("heap: arena %s exhausted (%d bytes requested)", a.Name, size)
	}
	addr := a.top
	a.top += uint64(sz)
	a.claim(addr, sz)
	a.stats.TopAllocs++
	return addr, nil
}

func (a *Arena) bestFit(want int64) (addr uint64, size int64) {
	best := int64(0)
	classes := make([]int64, 0, len(a.bins))
	for c, lst := range a.bins {
		if c >= want && len(lst) > 0 {
			classes = append(classes, c)
		}
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, c := range classes {
		lst := a.bins[c]
		addr, best = lst[len(lst)-1], c
		break
	}
	return addr, best
}

func (a *Arena) removeFromBin(addr uint64, size int64) {
	lst := a.bins[size]
	for i, x := range lst {
		if x == addr {
			a.bins[size] = append(lst[:i], lst[i+1:]...)
			return
		}
	}
}

func (a *Arena) claim(addr uint64, size int64) {
	a.sizes[addr] = size
	a.stats.Allocs++
	a.stats.BytesInUse += size
	if a.stats.BytesInUse > a.stats.PeakInUse {
		a.stats.PeakInUse = a.stats.BytesInUse
	}
}

func (a *Arena) insertFree(addr uint64, size int64) {
	a.freeAt[addr] = size
	a.freeEnd[addr+uint64(size)] = addr
	a.bins[size] = append(a.bins[size], addr)
}

func (a *Arena) unfree(addr uint64, size int64) {
	delete(a.freeAt, addr)
	delete(a.freeEnd, addr+uint64(size))
}

// Free releases the chunk at addr, coalescing with free neighbours and
// with the wilderness.
func (a *Arena) Free(addr uint64) error {
	size, ok := a.sizes[addr]
	if !ok {
		return fmt.Errorf("heap: arena %s: free of unallocated %#x", a.Name, addr)
	}
	delete(a.sizes, addr)
	a.stats.Frees++
	a.stats.BytesInUse -= size

	// Forward merge with the next free chunk.
	if nsz, ok := a.freeAt[addr+uint64(size)]; ok {
		a.removeFromBin(addr+uint64(size), nsz)
		a.unfree(addr+uint64(size), nsz)
		size += nsz
		a.stats.Coalesces++
	}
	// Backward merge with a free chunk ending at addr.
	if pstart, ok := a.freeEnd[addr]; ok {
		psz := a.freeAt[pstart]
		a.removeFromBin(pstart, psz)
		a.unfree(pstart, psz)
		addr = pstart
		size += psz
		a.stats.Coalesces++
	}
	// Return to the wilderness when adjacent to the top.
	if addr+uint64(size) == a.top {
		a.top = addr
		a.stats.Coalesces++
		return nil
	}
	a.insertFree(addr, size)
	return nil
}

// SizeOf returns the allocated chunk size at addr (0 when unknown).
func (a *Arena) SizeOf(addr uint64) int64 { return a.sizes[addr] }

// Realloc grows or shrinks the chunk at addr to size bytes, returning
// the (possibly moved) new address. The caller copies user data; this
// arena-level primitive only manages chunks (the VM's realloc intrinsic
// performs the copy through simulated memory).
func (a *Arena) Realloc(addr uint64, size int64) (uint64, int64, error) {
	old, ok := a.sizes[addr]
	if !ok {
		return 0, 0, fmt.Errorf("heap: arena %s: realloc of unallocated %#x", a.Name, addr)
	}
	want := roundSize(size)
	if want <= old {
		return addr, old, nil // shrink in place (no split: C permits slack)
	}
	naddr, err := a.Alloc(size)
	if err != nil {
		return 0, 0, err
	}
	return naddr, old, nil
}

// Owns reports whether addr lies within this arena's range.
func (a *Arena) Owns(addr uint64) bool { return addr >= a.base && addr < a.limit }

// Stats returns a copy of the activity counters.
func (a *Arena) Stats() Stats { return a.stats }

// Sectioned is the Pythia heap: a shared arena for ordinary allocations
// and an isolated arena for vulnerable objects. Both implement the same
// chunk discipline; isolation comes purely from address-range disjointness
// so a linear overflow in the shared section can never reach an isolated
// object.
type Sectioned struct {
	Shared   *Arena
	Isolated *Arena
}

// NewSectioned builds the two arenas on the standard segment layout.
func NewSectioned(sharedBase, sharedLimit, isoBase, isoLimit uint64) *Sectioned {
	return &Sectioned{
		Shared:   NewArena("shared", sharedBase, sharedLimit),
		Isolated: NewArena("isolated", isoBase, isoLimit),
	}
}

// Malloc allocates from the shared section (the default malloc).
func (s *Sectioned) Malloc(size int64) (uint64, error) { return s.Shared.Alloc(size) }

// SecureMalloc allocates from the isolated section (Pythia's replacement
// for malloc at vulnerable allocation sites).
func (s *Sectioned) SecureMalloc(size int64) (uint64, error) { return s.Isolated.Alloc(size) }

// Free routes the free to whichever arena owns the chunk.
func (s *Sectioned) Free(addr uint64) error {
	if s.Isolated.Owns(addr) {
		return s.Isolated.Free(addr)
	}
	return s.Shared.Free(addr)
}

// Realloc resizes within whichever arena owns the chunk.
func (s *Sectioned) Realloc(addr uint64, size int64) (uint64, int64, error) {
	if s.Isolated.Owns(addr) {
		return s.Isolated.Realloc(addr, size)
	}
	return s.Shared.Realloc(addr, size)
}

// SizeOf returns the chunk size regardless of section.
func (s *Sectioned) SizeOf(addr uint64) int64 {
	if s.Isolated.Owns(addr) {
		return s.Isolated.SizeOf(addr)
	}
	return s.Shared.SizeOf(addr)
}
