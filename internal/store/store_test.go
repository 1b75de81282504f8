package store

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"shelfsim"
)

// report runs a tiny real simulation so entries carry genuine cache keys
// and fingerprints; vary n for distinct keys.
func report(t testing.TB, n int64) shelfsim.Report {
	t.Helper()
	rep, err := shelfsim.RunReport(context.Background(), shelfsim.Request{
		Preset: "base64", Kernels: []string{"stream"}, Insts: 200 + n,
	})
	if err != nil {
		t.Fatalf("running fixture simulation: %v", err)
	}
	return rep
}

func open(t testing.TB, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// TestPutGetRoundTrip: a stored report comes back bit-equal — same result
// fingerprint, same cycles, and from GetBytes the very bytes of its wire
// encoding — and the hit/miss accounting tracks both lookups.
func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir())
	rep := report(t, 0)
	if err := s.Put(rep.CacheKey, rep); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get(rep.CacheKey)
	if !ok {
		t.Fatal("Get missed a just-put entry")
	}
	if got.ResultFingerprint != rep.ResultFingerprint || got.Cycles != rep.Cycles {
		t.Errorf("round trip changed the report: got %s/%d, want %s/%d",
			got.ResultFingerprint, got.Cycles, rep.ResultFingerprint, rep.Cycles)
	}
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if body, ok := s.GetBytes(rep.CacheKey); !ok || !bytes.Equal(body, want) {
		t.Errorf("GetBytes = %v, %s; want the report's wire encoding", ok, body)
	}
	if _, ok := s.Get("no-such-key"); ok {
		t.Error("Get hit an absent key")
	}
	if _, ok := s.GetBytes("no-such-key"); ok {
		t.Error("GetBytes hit an absent key")
	}
	st := s.Stats()
	if st.Entries != 1 || st.Hits != 2 || st.Misses != 2 || st.Puts != 1 {
		t.Errorf("stats: %+v", st)
	}
}

// flipCyclesDigit rewrites one digit of the entry's "cycles" value in
// place. The entry stays valid JSON with the same cache key and schema
// version, so only its bytes can tell that it changed.
func flipCyclesDigit(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte(`"cycles":`))
	if i < 0 {
		t.Fatalf("entry %s has no cycles field", path)
	}
	d := i + len(`"cycles":`)
	if data[d] == '9' {
		data[d] = '1'
	} else {
		data[d]++
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFlippedDigitIsAMiss: an entry altered after the store indexed it —
// written by this process's Put, or validated by Open — is a miss that
// drops the entry, never a hit carrying the altered number.
func TestFlippedDigitIsAMiss(t *testing.T) {
	for _, reopen := range []bool{false, true} {
		name := "after Put"
		if reopen {
			name = "after Open"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			rep := report(t, 9)
			s := open(t, dir)
			if err := s.Put(rep.CacheKey, rep); err != nil {
				t.Fatal(err)
			}
			if reopen {
				if s = open(t, dir); s.Len() != 1 {
					t.Fatalf("reopened store has %d entries, want 1", s.Len())
				}
			}
			flipCyclesDigit(t, s.keyPath(rep.CacheKey))
			if got, ok := s.Get(rep.CacheKey); ok {
				t.Fatalf("Get served an altered entry: cycles %d, the run had %d", got.Cycles, rep.Cycles)
			}
			if st := s.Stats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 1 {
				t.Errorf("altered entry not dropped as a miss: %+v", st)
			}
		})
	}
}

// TestFlippedDigitAtRestSkippedOnOpen: an entry altered while no store
// had it open — one "cycles" digit flipped, still valid JSON with the same
// cache key, schema version and filename — no longer hashes to its result
// fingerprint, so Open skips it and a lookup is a miss.
func TestFlippedDigitAtRestSkippedOnOpen(t *testing.T) {
	dir := t.TempDir()
	rep := report(t, 10)
	if err := open(t, dir).Put(rep.CacheKey, rep); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir)
	flipCyclesDigit(t, s.keyPath(rep.CacheKey))
	s = open(t, dir)
	if _, ok := s.Get(rep.CacheKey); ok {
		t.Fatal("Open indexed an entry altered at rest")
	}
	if st := s.Stats(); st.Entries != 0 || st.SkippedOnOpen != 1 || st.Misses != 1 {
		t.Errorf("altered entry not skipped on open: %+v", st)
	}
}

// TestWarmRestart: a second Open over the same directory serves the first
// process's results — the entry is indexed (WarmEntries) and Get returns a
// report whose fingerprint is byte-identical to the one stored.
func TestWarmRestart(t *testing.T) {
	dir := t.TempDir()
	rep := report(t, 1)
	first := open(t, dir)
	if err := first.Put(rep.CacheKey, rep); err != nil {
		t.Fatalf("Put: %v", err)
	}

	second := open(t, dir)
	if st := second.Stats(); st.WarmEntries != 1 || st.Entries != 1 || st.SkippedOnOpen != 0 {
		t.Fatalf("warm stats: %+v", st)
	}
	got, ok := second.Get(rep.CacheKey)
	if !ok {
		t.Fatal("warm Get missed")
	}
	if got.ResultFingerprint != rep.ResultFingerprint {
		t.Errorf("warm fingerprint %s != stored %s", got.ResultFingerprint, rep.ResultFingerprint)
	}
	// The fresh-run differential: re-simulating the same request must
	// fingerprint identically to the stored entry.
	fresh := report(t, 1)
	if fresh.ResultFingerprint != got.ResultFingerprint {
		t.Errorf("fresh run fingerprint %s != stored %s", fresh.ResultFingerprint, got.ResultFingerprint)
	}
}

// TestCrashConsistency: a kill mid-write leaves an orphaned temporary and
// possibly truncated bytes; the next Open must remove the temporary,
// refuse the corrupt entry, and keep serving the good ones.
func TestCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	good := report(t, 2)
	s := open(t, dir)
	if err := s.Put(good.CacheKey, good); err != nil {
		t.Fatalf("Put: %v", err)
	}

	// A writer that died before the rename: partial bytes under a tmp name.
	tmp := filepath.Join(dir, tmpPrefix+"123456")
	full, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// A corrupt final entry (disk damage after a successful write).
	corrupt := filepath.Join(dir, strings.Repeat("ab", 32)+entryExt)
	if err := os.WriteFile(corrupt, full[:len(full)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("orphaned temporary survived Open: %v", err)
	}
	st := s2.Stats()
	if st.Entries != 1 || st.SkippedOnOpen != 1 {
		t.Errorf("post-crash stats: %+v", st)
	}
	if _, ok := s2.Get(good.CacheKey); !ok {
		t.Error("good entry lost after crash recovery")
	}
}

// TestSchemaVersionRejection: an entry written by a different (future)
// schema version must be skipped on warm restart, not misread.
func TestSchemaVersionRejection(t *testing.T) {
	dir := t.TempDir()
	rep := report(t, 3)
	s := open(t, dir)
	if err := s.Put(rep.CacheKey, rep); err != nil {
		t.Fatalf("Put: %v", err)
	}

	// Rewrite the entry in place with a foreign schema version, keeping
	// everything else (filename included) valid.
	path := s.keyPath(rep.CacheKey)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, foreignVersion(t, data), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir)
	st := s2.Stats()
	if st.Entries != 0 || st.SkippedOnOpen != 1 {
		t.Errorf("foreign-schema stats: %+v", st)
	}
	if _, ok := s2.Get(rep.CacheKey); ok {
		t.Error("foreign-schema entry was served")
	}
}

// foreignVersion re-encodes an entry under a schema version this build
// does not speak.
func foreignVersion(t testing.TB, data []byte) []byte {
	t.Helper()
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["schema_version"] = shelfsim.SchemaVersion + 98
	foreign, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	return foreign
}

// TestMismatchedFilenameRejected: an entry whose content does not hash to
// its own filename (copied or tampered) is not indexed.
func TestMismatchedFilenameRejected(t *testing.T) {
	dir := t.TempDir()
	rep := report(t, 4)
	s := open(t, dir)
	if err := s.Put(rep.CacheKey, rep); err != nil {
		t.Fatal(err)
	}
	src := s.keyPath(rep.CacheKey)
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	alias := filepath.Join(dir, strings.Repeat("cd", 32)+entryExt)
	if err := os.WriteFile(alias, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	if st := s2.Stats(); st.Entries != 1 || st.SkippedOnOpen != 1 {
		t.Errorf("aliased-entry stats: %+v", st)
	}
}

// TestPutKeyMismatch: storing a report under a key it does not carry is a
// caller bug and must be refused before touching disk.
func TestPutKeyMismatch(t *testing.T) {
	s := open(t, t.TempDir())
	rep := report(t, 5)
	if err := s.Put("some-other-key", rep); err == nil {
		t.Error("Put accepted a mismatched key")
	}
	if err := s.Put("", rep); err == nil {
		t.Error("Put accepted an empty key")
	}
	if s.Len() != 0 {
		t.Errorf("store has %d entries after rejected puts", s.Len())
	}
}

// TestMetaRoundTrip: the auxiliary document survives a reopen and a
// corrupt one reads as absent.
func TestMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	type meta struct {
		Completed int64 `json:"completed"`
	}
	s := open(t, dir)
	if ok, err := s.LoadMeta(&meta{}); ok || err != nil {
		t.Fatalf("LoadMeta on empty store: ok=%v err=%v", ok, err)
	}
	if err := s.SaveMeta(meta{Completed: 42}); err != nil {
		t.Fatalf("SaveMeta: %v", err)
	}
	var m meta
	s2 := open(t, dir)
	if ok, err := s2.LoadMeta(&m); !ok || err != nil || m.Completed != 42 {
		t.Fatalf("LoadMeta after reopen: ok=%v err=%v m=%+v", ok, err, m)
	}
	if err := os.WriteFile(filepath.Join(dir, metaName), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if ok, err := s2.LoadMeta(&m); ok || err != nil {
		t.Errorf("corrupt meta: ok=%v err=%v", ok, err)
	}
}

// TestConcurrentPutGet exercises the index under -race: concurrent
// writers and readers over overlapping keys must never corrupt the store.
func TestConcurrentPutGet(t *testing.T) {
	s := open(t, t.TempDir())
	reps := []shelfsim.Report{report(t, 6), report(t, 7), report(t, 8)}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				rep := reps[(w+i)%len(reps)]
				if err := s.Put(rep.CacheKey, rep); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if got, ok := s.Get(rep.CacheKey); ok && got.ResultFingerprint != rep.ResultFingerprint {
					t.Errorf("Get returned wrong report for %s", rep.CacheKey)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != len(reps) {
		t.Errorf("store has %d entries, want %d", s.Len(), len(reps))
	}
}

// TestOpenDeterministicAcrossGOMAXPROCS: Open validates entries in
// parallel, but what it indexes and counts is the same on one goroutine
// as on eight, over a directory holding every kind of file it meets.
func TestOpenDeterministicAcrossGOMAXPROCS(t *testing.T) {
	reps := []shelfsim.Report{report(t, 12), report(t, 13), report(t, 14), report(t, 15)}
	build := func() string {
		dir := t.TempDir()
		s := open(t, dir)
		for _, rep := range reps {
			if err := s.Put(rep.CacheKey, rep); err != nil {
				t.Fatal(err)
			}
		}
		good, err := os.ReadFile(s.keyPath(reps[0].CacheKey))
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{
			filepath.Base(s.keyPath(reps[3].CacheKey)): foreignVersion(t, good),
			strings.Repeat("ab", 32) + entryExt:        good[:len(good)/2],
			strings.Repeat("cd", 32) + entryExt:        good,
			tmpPrefix + "1":                            good[:len(good)/3],
			tmpPrefix + "2":                            nil,
		}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	want := Stats{Entries: 3, WarmEntries: 3, SkippedOnOpen: 3}
	wantKeys := []string{reps[0].CacheKey, reps[1].CacheKey, reps[2].CacheKey}
	slices.Sort(wantKeys)
	for _, procs := range []int{1, 8} {
		dir := build()
		prev := runtime.GOMAXPROCS(procs)
		s, err := Open(dir)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st != want {
			t.Errorf("GOMAXPROCS=%d: stats %+v, want %+v", procs, st, want)
		}
		var keys []string
		for key := range s.index {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		if !slices.Equal(keys, wantKeys) {
			t.Errorf("GOMAXPROCS=%d indexed %v, want %v", procs, keys, wantKeys)
		}
		debris, err := filepath.Glob(filepath.Join(dir, tmpPrefix+"*"))
		if err != nil || len(debris) != 0 {
			t.Errorf("GOMAXPROCS=%d: temporaries survived Open: %v %v", procs, debris, err)
		}
	}
}

// FuzzStoreOpen: whatever bytes sit in an entry file, under its own name
// or another, Open does not panic, accounts for every candidate file as
// indexed or skipped, and serves only reports that decode, carry the key
// they are served under, hash to their own filename and whose outcome
// fields hash to their result fingerprint.
func FuzzStoreOpen(f *testing.F) {
	neighbour := report(f, 16)
	data, err := json.Marshal(report(f, 17))
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(data)
	flipped[len(flipped)/2] ^= 0x04
	f.Add(data, false)
	f.Add(data[:len(data)/2], false)
	f.Add(flipped, false)
	f.Add(foreignVersion(f, data), false)
	f.Add(data, true)
	f.Fuzz(func(t *testing.T, data []byte, misname bool) {
		dir := t.TempDir()
		s := open(t, dir)
		if err := s.Put(neighbour.CacheKey, neighbour); err != nil {
			t.Fatal(err)
		}
		name := strings.Repeat("ab", 32) + entryExt
		var probe struct {
			CacheKey string `json:"cache_key"`
		}
		if json.Unmarshal(data, &probe) == nil && probe.CacheKey != "" && !misname {
			name = filepath.Base(s.keyPath(probe.CacheKey))
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		candidates, err := filepath.Glob(filepath.Join(dir, "*"+entryExt))
		if err != nil {
			t.Fatal(err)
		}

		s = open(t, dir)
		if st := s.Stats(); st.Entries+st.SkippedOnOpen != len(candidates) {
			t.Fatalf("stats %+v do not account for %d candidate files", st, len(candidates))
		}
		keys := make([]string, 0, len(s.index))
		for key := range s.index {
			keys = append(keys, key)
		}
		for _, key := range keys {
			rep, ok := s.Get(key)
			if !ok {
				t.Fatalf("indexed key %q was not served", key)
			}
			if rep.CacheKey != key {
				t.Fatalf("key %q served a report for %q", key, rep.CacheKey)
			}
			if got, want := s.index[key].path, s.keyPath(key); got != want {
				t.Fatalf("key %q served from %s, not its own filename %s", key, got, want)
			}
			body, ok := s.GetBytes(key)
			if !ok {
				t.Fatalf("indexed key %q was not served as bytes", key)
			}
			if _, err := shelfsim.DecodeReport(body); err != nil {
				t.Fatalf("key %q served bytes that do not decode: %v", key, err)
			}
			if err := rep.CheckResultFingerprint(); err != nil {
				t.Fatalf("key %q indexed a report whose fingerprint does not recompute: %v", key, err)
			}
		}
	})
}
