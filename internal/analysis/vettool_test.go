package analysis_test

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"shelfsim/internal/analysis/checkers"
)

// buildShelfvet compiles the multichecker binary once per test run.
func buildShelfvet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "shelfvet")
	cmd := exec.Command("go", "build", "-o", bin, "shelfsim/cmd/shelfvet")
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building shelfvet: %v\n%s", err, out)
	}
	return bin
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}

// writeTree materializes a file tree under dir.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// shelfvetReport is the -json report shape the CI gate archives.
type shelfvetReport struct {
	Count       int      `json:"count"`
	Packages    []string `json:"packages"`
	Diagnostics []struct {
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	} `json:"diagnostics"`
}

// runGate runs `shelfvet -json ./...` in dir, exactly as scripts/ci.sh
// does, and returns the decoded report and the exit code.
func runGate(t *testing.T, shelfvet, dir string) (shelfvetReport, int) {
	t.Helper()
	cmd := exec.Command(shelfvet, "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	code := 0
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("running shelfvet: %v", err)
	}
	var rep shelfvetReport
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("decoding shelfvet report (exit %d): %v\nstdout:\n%s\nstderr:\n%s", code, err, out, stderr.String())
	}
	return rep, code
}

// plantedModule has one violation per analyzer, each in the package the
// analyzer polices; plantedDiagnostics maps each analyzer to a fragment of
// the diagnostic it must report.
var plantedModule = map[string]string{
	"go.mod": "module scratchsim\n\ngo 1.22\n",
	// A mutable package global, a bare-string panic, a range over a map, a
	// wall-clock read and a runtime-sized make, all on the cycle loop.
	"internal/core/core.go": `package core

import "time"

var stallCount int64

type Core struct {
	pending map[int]int
	buf     []int
	started time.Time
}

func (c *Core) Step(ok bool, n int) {
	if !ok {
		panic("pipeline stalled")
	}
	stallCount++
	c.buf = make([]int, n)
	for k := range c.pending {
		c.buf[0] += k
	}
	c.started = time.Now()
}
`,
	"internal/store/store.go": `package store

type Store struct{}

func (s *Store) SaveMeta(doc any) error { return nil }
`,
	// An unpaired Lock, a plain read of an atomically written field, a
	// goroutine with no exit path and a dropped store error.
	"internal/serve/serve.go": `package serve

import (
	"sync"
	"sync/atomic"

	"scratchsim/internal/store"
)

type Shard struct {
	mu    sync.Mutex
	queue []int
	gate  int64
}

func (s *Shard) Pop() int {
	s.mu.Lock()
	if len(s.queue) == 0 {
		return -1
	}
	v := s.queue[0]
	s.queue = s.queue[1:]
	s.mu.Unlock()
	return v
}

func (s *Shard) Arm() {
	atomic.StoreInt64(&s.gate, 1)
}

func (s *Shard) Armed() bool {
	return s.gate == 1
}

func (s *Shard) Own() {
	go func() {
		for {
			s.Pop()
		}
	}()
}

func (s *Shard) Persist(st *store.Store) {
	_ = st.SaveMeta(len(s.queue))
}
`,
}

var plantedDiagnostics = map[string]string{
	"noglobals":      "package-level variable stallCount",
	"typedpanic":     "panic argument has type string",
	"maprange":       "range over map of type map[int]int",
	"walltime":       "time.Now in the simulation path",
	"hotalloc":       "make with non-constant size in Step",
	"lockdiscipline": "not released on every path",
	"atomicmix":      "accessed with sync/atomic",
	"goroleak":       "no provable exit path",
	"errdrop":        "SaveMeta is assigned to _",
}

// TestVettoolGateFailsOnReintroducedViolations is the acceptance test for
// the CI gate: a scratch module with one planted violation per analyzer
// must make `shelfvet -json ./...` exit 2 with exactly one diagnostic from
// every analyzer, each naming its bug class. An analyzer added without a
// planted violation, or removed with its plant left here, fails too.
func TestVettoolGateFailsOnReintroducedViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and loads a module")
	}
	shelfvet := buildShelfvet(t)
	mod := t.TempDir()
	writeTree(t, mod, plantedModule)

	rep, code := runGate(t, shelfvet, mod)
	if code != 2 {
		t.Fatalf("shelfvet exit %d on a module with planted violations, want 2: %+v", code, rep)
	}
	got := map[string][]string{}
	for _, d := range rep.Diagnostics {
		got[d.Analyzer] = append(got[d.Analyzer], d.Message)
	}
	for _, a := range checkers.All() {
		if _, ok := plantedDiagnostics[a.Name]; !ok {
			t.Errorf("analyzer %s has no planted violation", a.Name)
		}
	}
	for name, frag := range plantedDiagnostics {
		msgs := got[name]
		if len(msgs) != 1 || !strings.Contains(msgs[0], frag) {
			t.Errorf("%s: want one diagnostic containing %q, got %q", name, frag, msgs)
		}
		delete(got, name)
	}
	if len(got) > 0 {
		t.Errorf("diagnostics from unexpected analyzers: %v", got)
	}
	if rep.Count != len(rep.Diagnostics) {
		t.Errorf("report count %d, but %d diagnostics", rep.Count, len(rep.Diagnostics))
	}
}

// TestVettoolGatePassesCleanModule is the inverse: the same scratch shapes
// with the violations repaired must pass the gate, and the report must
// list every package it vetted.
func TestVettoolGatePassesCleanModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and loads a module")
	}
	shelfvet := buildShelfvet(t)
	mod := t.TempDir()
	writeTree(t, mod, map[string]string{
		"go.mod": "module scratchsim\n\ngo 1.22\n",
		// State on the instance, a typed panic, a sorted slice in place of
		// the map, the cycle counter in place of the clock, and a buffer
		// sized at construction.
		"internal/core/core.go": `package core

import "fmt"

type StallError struct{ Cycle int64 }

func (e *StallError) Error() string { return fmt.Sprintf("stalled at %d", e.Cycle) }

type Core struct {
	stallCount int64
	pending    []int
	buf        []int
	cycle      int64
	started    int64
}

func New(n int) *Core { return &Core{buf: make([]int, n)} }

func (c *Core) Step(ok bool) {
	if !ok {
		panic(&StallError{Cycle: c.cycle})
	}
	c.stallCount++
	for _, k := range c.pending {
		c.buf[0] += k
	}
	c.started = c.cycle
}
`,
		"internal/store/store.go": plantedModule["internal/store/store.go"],
		// The repaired serving shapes: deferred unlock, typed atomics used
		// through their API, a done-channel goroutine, and a propagated
		// store error.
		"internal/serve/serve.go": `package serve

import (
	"sync"
	"sync/atomic"

	"scratchsim/internal/store"
)

type Shard struct {
	mu    sync.Mutex
	queue []int
	gate  atomic.Int64
	done  chan struct{}
}

func (s *Shard) Pop() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return -1
	}
	v := s.queue[0]
	s.queue = s.queue[1:]
	return v
}

func (s *Shard) Arm() {
	s.gate.Store(1)
}

func (s *Shard) Armed() bool {
	return s.gate.Load() == 1
}

func (s *Shard) Own() {
	go func() {
		for {
			select {
			case <-s.done:
				return
			default:
				s.Pop()
			}
		}
	}()
}

func (s *Shard) Persist(st *store.Store) error {
	return st.SaveMeta(len(s.queue))
}
`,
	})

	rep, code := runGate(t, shelfvet, mod)
	if code != 0 || rep.Count != 0 {
		t.Fatalf("shelfvet exit %d with %d diagnostics on a clean module: %+v", code, rep.Count, rep.Diagnostics)
	}
	sort.Strings(rep.Packages)
	wantPkgs := "scratchsim/internal/core scratchsim/internal/serve scratchsim/internal/store"
	if got := strings.Join(rep.Packages, " "); got != wantPkgs {
		t.Fatalf("report lists packages %q, want %q", got, wantPkgs)
	}
}
