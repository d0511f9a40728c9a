// Package artifact is a persistent, content-addressed store for
// pipeline build products — the on-disk generalization of the
// in-process run memoization in internal/bench.
//
// Entries live in a sharded layout under the store root:
//
//	<root>/<digest[:2]>/<digest>
//
// where digest is the hex SHA-256 cache key derived from the stage's
// inputs (source bytes, upstream artifact digest, scheme, codec
// version). Every entry is self-verifying: a fixed magic, the store
// format version, and the SHA-256 of the payload precede the payload
// itself, so truncated, corrupted, or stale-format entries are detected
// on read and reported as misses — the pipeline then recomputes and
// rewrites them. Writes go through a temp file plus atomic rename, so
// concurrent processes sharing one cache directory never observe a
// partially written entry; because entries are content-keyed and every
// producer of a key writes identical bytes, last-rename-wins is
// harmless.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// FormatVersion stamps every entry. Bump it when the entry layout
// changes; old entries then fail verification and are recomputed.
const FormatVersion = 1

var entryMagic = []byte("PYART")

// Store is a content-addressed artifact directory. The zero value is
// not usable; construct with Open. Store is safe for concurrent use by
// multiple goroutines and multiple processes.
type Store struct {
	root string
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: open store: %w", err)
	}
	return &Store{root: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.root }

// Key derives a cache key from the given input parts. Parts are
// length-prefixed before hashing so no two distinct part lists collide
// by concatenation.
func Key(parts ...string) string {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// path maps a key to its sharded entry file.
func (s *Store) path(key string) string {
	if len(key) < 3 {
		return filepath.Join(s.root, "xx", key)
	}
	return filepath.Join(s.root, key[:2], key)
}

// Get returns the payload stored under key, or ok=false on a miss. A
// present-but-invalid entry (truncated, corrupted, or written by a
// different format version) counts as a miss and is deleted so the
// next Put replaces it.
func (s *Store) Get(key string) ([]byte, bool) {
	p := s.path(key)
	raw, err := os.ReadFile(p)
	if err != nil {
		count("artifact.get.misses", key)
		return nil, false
	}
	payload, err := decodeEntry(raw)
	if err != nil {
		count("artifact.get.corrupt", key)
		os.Remove(p) // best effort; Put rewrites atomically anyway
		return nil, false
	}
	count("artifact.get.hits", key)
	return payload, true
}

// Put stores payload under key atomically.
func (s *Store) Put(key string, payload []byte) error {
	p := s.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("artifact: put: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "."+filepath.Base(p)+".tmp*")
	if err != nil {
		return fmt.Errorf("artifact: put: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	_, err = tmp.Write(encodeEntry(payload))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("artifact: put: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return fmt.Errorf("artifact: put: %w", err)
	}
	count("artifact.put.writes", key)
	return nil
}

// Stats summarizes the store's on-disk footprint.
type Stats struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// entryInfo is one on-disk entry observed by a walk.
type entryInfo struct {
	path  string
	size  int64
	mtime time.Time
}

// walk lists the store's current entries. Temp files from in-flight
// Puts (dot-prefixed) are skipped; entries deleted concurrently between
// the directory listing and the stat simply drop out, so walking is
// safe against concurrent Put/Get/Prune.
func (s *Store) walk() ([]entryInfo, error) {
	shards, err := os.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("artifact: stats: %w", err)
	}
	var out []entryInfo
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(s.root, sh.Name()))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, fmt.Errorf("artifact: stats: %w", err)
		}
		for _, e := range entries {
			if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
				continue
			}
			fi, err := e.Info()
			if err != nil {
				continue // raced with a concurrent delete
			}
			out = append(out, entryInfo{
				path:  filepath.Join(s.root, sh.Name(), e.Name()),
				size:  fi.Size(),
				mtime: fi.ModTime(),
			})
		}
	}
	return out, nil
}

// publish mirrors the footprint into the active metrics registry so a
// long-lived embedder's /metricz tracks cache growth and eviction.
func publish(st Stats) {
	if reg := obs.CurrentMetrics(); reg != nil {
		reg.Gauge("artifact.entries").Set(float64(st.Entries))
		reg.Gauge("artifact.bytes").Set(float64(st.Bytes))
	}
}

// Stats walks the store and reports its entry count and byte
// footprint, updating the artifact.entries/artifact.bytes gauges.
func (s *Store) Stats() (Stats, error) {
	entries, err := s.walk()
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	for _, e := range entries {
		st.Entries++
		st.Bytes += e.size
	}
	publish(st)
	return st, nil
}

// Prune evicts entries, oldest modification time first, until the
// store's byte footprint is at most maxBytes, and returns the resulting
// stats. Deletes are whole-file removes of self-verifying entries, so a
// concurrent Get either wins the race and reads a complete entry or
// misses cleanly and recomputes — never observes a torn one. Ties on
// mtime break by path for determinism.
func (s *Store) Prune(maxBytes int64) (Stats, error) {
	entries, err := s.walk()
	if err != nil {
		return Stats{}, err
	}
	var total int64
	for _, e := range entries {
		total += e.size
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].path < entries[j].path
	})
	kept := len(entries)
	for _, e := range entries {
		if total <= maxBytes {
			break
		}
		if err := os.Remove(e.path); err != nil && !os.IsNotExist(err) {
			return Stats{}, fmt.Errorf("artifact: prune: %w", err)
		}
		count("artifact.prune.evictions", filepath.Base(e.path))
		total -= e.size
		kept--
	}
	st := Stats{Entries: kept, Bytes: total}
	publish(st)
	return st, nil
}

// encodeEntry frames a payload: magic | version | sha256 | len | bytes.
func encodeEntry(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, len(entryMagic)+4+len(sum)+8+len(payload))
	out = append(out, entryMagic...)
	out = binary.LittleEndian.AppendUint32(out, FormatVersion)
	out = append(out, sum[:]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	return append(out, payload...)
}

// decodeEntry verifies an entry's frame and checksum.
func decodeEntry(raw []byte) ([]byte, error) {
	header := len(entryMagic) + 4 + sha256.Size + 8
	if len(raw) < header {
		return nil, fmt.Errorf("artifact: entry truncated (%d bytes)", len(raw))
	}
	if string(raw[:len(entryMagic)]) != string(entryMagic) {
		return nil, fmt.Errorf("artifact: bad entry magic")
	}
	off := len(entryMagic)
	if v := binary.LittleEndian.Uint32(raw[off:]); v != FormatVersion {
		return nil, fmt.Errorf("artifact: entry format version %d, want %d", v, FormatVersion)
	}
	off += 4
	var want [sha256.Size]byte
	copy(want[:], raw[off:])
	off += sha256.Size
	n := binary.LittleEndian.Uint64(raw[off:])
	off += 8
	if uint64(len(raw)-off) != n {
		return nil, fmt.Errorf("artifact: entry payload truncated: %d bytes, header says %d", len(raw)-off, n)
	}
	payload := raw[off:]
	if sha256.Sum256(payload) != want {
		return nil, fmt.Errorf("artifact: entry checksum mismatch")
	}
	return payload, nil
}

// count bumps an obs counter in the active session's registry, resolved
// at increment time so stores built before a session starts still
// report once one is active, and drops a journal point carrying the
// entry's content digest so cache traffic is attributable per key.
func count(name, key string) {
	obs.Count(name)
	obs.Point(name, "artifact", map[string]string{"key": key})
}
