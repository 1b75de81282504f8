// Package store is shelfd's persistent, content-addressed result store:
// completed runs outlive the process that computed them. Each entry is one
// versioned shelfsim.Report in its wire JSON form, filed under the SHA-256
// of its cache key (configuration fingerprint + mix identity + measurement
// window), so the store's identity scheme is exactly the identity scheme
// the dedup layer and the harness memoization already use — a repeat
// request after a restart is a disk read, not a re-simulation.
//
// Crash consistency is rename-based: entries are written to a temporary
// file, fsynced and atomically renamed into place, so a crash mid-write
// leaves at worst an orphaned temporary that the next Open removes. Open
// indexes every entry up front (warm restart) and rejects — skips without
// serving — entries whose schema version this build does not speak, whose
// JSON is corrupt, whose content does not match their filename, or whose
// outcome fields no longer hash to their result fingerprint.
//
// The index records a SHA-256 digest of every entry's bytes, taken when
// Open validated them or Put wrote them. A read serves the file only if
// its bytes still hash to that digest, so a hit is a byte copy that needs
// no decode to be trusted.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"shelfsim"
)

// metaName is the auxiliary document's filename (see SaveMeta); tmpPrefix
// marks in-progress writes that a crash may orphan.
const (
	metaName  = "meta.json"
	tmpPrefix = ".tmp-"
	entryExt  = ".json"
)

// Stats is the store's cumulative accounting, exported by shelfd's
// /metrics endpoint.
type Stats struct {
	// Entries is the current number of servable results on disk.
	Entries int `json:"entries"`
	// WarmEntries counts the entries indexed by Open — the state the store
	// carried across the last restart.
	WarmEntries int `json:"warm_entries"`
	// SkippedOnOpen counts files Open refused to index: foreign schema
	// versions, corrupt JSON, content/filename mismatches, fields that do
	// not hash to the result fingerprint.
	SkippedOnOpen int `json:"skipped_on_open"`
	// Hits and Misses count Get and GetBytes outcomes; Puts counts stored
	// results.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Puts   int64 `json:"puts"`
}

// Store is a disk-backed map from run cache keys to versioned Reports.
// All methods are safe for concurrent use.
type Store struct {
	dir string

	mu    sync.RWMutex
	index map[string]entry // cache key -> indexed entry

	warmEntries   int
	skippedOnOpen int

	hits, misses, puts atomic.Int64
}

// entry is one indexed result: its file and the digest of the bytes the
// store validated or wrote there.
type entry struct {
	path   string
	digest [sha256.Size]byte
}

// keyPath is the content address: SHA-256 of the cache key, hex, one flat
// file per entry.
func (s *Store) keyPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+entryExt)
}

// Open creates (if needed) and indexes the store rooted at dir. Orphaned
// temporaries from a crashed writer are deleted; entries that fail
// validation are skipped and counted, never served, and left on disk for
// forensics. Entries are validated on GOMAXPROCS goroutines; the index and
// the counts do not depend on how many. The indexed entries are
// immediately servable — this is the warm-restart path.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir, index: make(map[string]entry)}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", dir, err)
	}
	var names []string
	for _, de := range des {
		name := de.Name()
		switch {
		case de.IsDir():
			continue
		case strings.HasPrefix(name, tmpPrefix):
			// A writer crashed mid-Put; the rename never happened, so the
			// entry does not exist and the partial bytes are garbage.
			_ = os.Remove(filepath.Join(dir, name)) //shelfvet:ignore errdrop — best-effort GC of crash debris; a survivor is re-swept next open
			continue
		case name == metaName || !strings.HasSuffix(name, entryExt):
			continue
		}
		names = append(names, name)
	}
	keys := make([]string, len(names))
	entries := make([]entry, len(names))
	workers := min(runtime.GOMAXPROCS(0), len(names))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(names); i += workers {
				keys[i], entries[i] = s.validateEntry(names[i])
			}
		}()
	}
	wg.Wait()
	for i, key := range keys {
		if key == "" {
			s.skippedOnOpen++
			continue
		}
		s.index[key] = entries[i]
	}
	s.warmEntries = len(s.index)
	return s, nil
}

// validateEntry decides whether one on-disk file is a servable entry,
// returning its cache key ("" when it is not) and its indexed form. A file
// is rejected when its JSON is corrupt, its schema version is not this
// build's (DecodeReport enforces that), it carries no cache key, its key
// does not hash to its own filename, or its outcome fields do not hash to
// its result fingerprint — a value altered at rest that is still valid
// JSON. This is the QED-style gate: never trust a layer you did not just
// write.
func (s *Store) validateEntry(name string) (string, entry) {
	path := filepath.Join(s.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return "", entry{}
	}
	rep, err := shelfsim.DecodeReport(data)
	if err != nil || rep.CacheKey == "" {
		return "", entry{}
	}
	if filepath.Base(s.keyPath(rep.CacheKey)) != name || rep.CheckResultFingerprint() != nil {
		return "", entry{}
	}
	return rep.CacheKey, entry{path: path, digest: sha256.Sum256(data)}
}

// Get returns the stored Report for key, if present: GetBytes, then
// DecodeReport.
func (s *Store) Get(key string) (shelfsim.Report, bool) {
	data, ok := s.read(key)
	var rep shelfsim.Report
	if ok {
		var err error
		rep, err = shelfsim.DecodeReport(data)
		if ok = err == nil && rep.CacheKey == key; !ok {
			s.drop(key)
		}
	}
	s.count(ok)
	return rep, ok
}

// GetBytes returns the stored entry for key, if present, as the bytes of
// its wire JSON. The bytes hash to the digest the store recorded when it
// validated or wrote the entry; an entry that no longer does (external
// corruption) or that cannot be read is dropped from the index and
// reported as a miss, so the caller falls back to simulating.
func (s *Store) GetBytes(key string) ([]byte, bool) {
	data, ok := s.read(key)
	s.count(ok)
	return data, ok
}

// read looks key up and returns its file's bytes if they still match the
// indexed digest, dropping the entry when they do not.
func (s *Store) read(key string) ([]byte, bool) {
	s.mu.RLock()
	e, ok := s.index[key]
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	data, err := os.ReadFile(e.path)
	if err != nil || sha256.Sum256(data) != e.digest {
		s.drop(key)
		return nil, false
	}
	return data, true
}

// drop removes key from the index.
func (s *Store) drop(key string) {
	s.mu.Lock()
	delete(s.index, key)
	s.mu.Unlock()
}

// count records one lookup's outcome.
func (s *Store) count(hit bool) {
	if hit {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
}

// Contains reports whether key is indexed, without touching hit/miss
// accounting.
func (s *Store) Contains(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[key]
	return ok
}

// Put persists rep under key, atomically: tmp write, fsync, rename.
// Re-putting an existing key overwrites it (same key, same deterministic
// content — the write is idempotent).
func (s *Store) Put(key string, rep shelfsim.Report) error {
	if rep.CacheKey != key {
		return fmt.Errorf("store: report cache key %q does not match store key %q", rep.CacheKey, key)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("store: encoding report: %w", err)
	}
	return s.PutBytes(key, data)
}

// PutBytes is Put for a report the caller has already encoded: data must
// be the json.Marshal encoding of a Report whose CacheKey is key. The
// store keeps those bytes as they are and serves them back from GetBytes.
func (s *Store) PutBytes(key string, data []byte) error {
	if key == "" {
		return fmt.Errorf("store: empty cache key")
	}
	e := entry{path: s.keyPath(key), digest: sha256.Sum256(data)}
	if err := s.writeAtomic(e.path, data); err != nil {
		return err
	}
	s.mu.Lock()
	s.index[key] = e
	s.mu.Unlock()
	s.puts.Add(1)
	return nil
}

// writeAtomic lands data at path through a fsynced temporary + rename, so
// no reader — current or after a crash — can observe a partial entry.
func (s *Store) writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: creating temp entry: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, path)
	}
	if err != nil {
		_ = os.Remove(tmpName) //shelfvet:ignore errdrop — cleanup on the failure path; the write error below is the one that matters
		return fmt.Errorf("store: writing entry: %w", err)
	}
	// Best-effort directory sync so the rename itself survives power loss.
	if d, derr := os.Open(s.dir); derr == nil {
		_ = d.Sync()  //shelfvet:ignore errdrop — the entry itself is already fsynced; the directory sync is defense in depth
		_ = d.Close() //shelfvet:ignore errdrop — read-only directory handle; Close cannot lose data
	}
	return nil
}

// Len is the number of servable entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Stats snapshots the store's accounting.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	entries := len(s.index)
	s.mu.RUnlock()
	return Stats{
		Entries:       entries,
		WarmEntries:   s.warmEntries,
		SkippedOnOpen: s.skippedOnOpen,
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Puts:          s.puts.Load(),
	}
}

// SaveMeta atomically persists an auxiliary JSON document alongside the
// entries (shelfd carries its cumulative service counters across restarts
// with it). The document is versioned by its owner, not the store.
func (s *Store) SaveMeta(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: encoding meta: %w", err)
	}
	return s.writeAtomic(filepath.Join(s.dir, metaName), data)
}

// LoadMeta reads the auxiliary document into v, reporting whether one
// exists. A corrupt document is treated as absent (false, nil): meta is
// advisory state, never worth failing a boot over.
func (s *Store) LoadMeta(v any) (bool, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, metaName))
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: reading meta: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, nil
	}
	return true, nil
}
