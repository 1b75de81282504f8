package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// runAsMain is the environment switch that makes the test binary behave
// as the experiments command: TestMain runs main with the binary's
// arguments instead of the tests, so a test can drive the real flag
// parsing, exit codes and stdout.
const runAsMain = "EXPERIMENTS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args in a child process and returns
// its stdout, stderr and exit code.
func runMain(t *testing.T, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsMain+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return out.Bytes(), errb.Bytes(), ee.ExitCode()
	}
	if err != nil {
		t.Fatalf("running experiments %v: %v", args, err)
	}
	return out.Bytes(), errb.Bytes(), 0
}

// TestFigureGoldens pins the printed tables and the sweep CSV byte for
// byte. The golden files were taken before the figures shared one STP loop
// (the sweep's from the standalone sweep command it replaced), so they show
// that folding the loops together moved no output. After an intended
// change, regenerate them from the repository root with
//
//	go run ./cmd/experiments -exp all -insts 1000 -mixes 3 > testdata/experiments/all_insts1000_mixes3.txt
//	go run ./cmd/experiments -exp sweep -param shelf -mixes 3 -insts 1000 > testdata/experiments/sweep_shelf_insts1000_mixes3.txt
//
// and explain the move in the change.
func TestFigureGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"all_insts1000_mixes3.txt", []string{"-exp", "all", "-insts", "1000", "-mixes", "3"}},
		{"sweep_shelf_insts1000_mixes3.txt", []string{"-exp", "sweep", "-param", "shelf", "-mixes", "3", "-insts", "1000"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "experiments", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			got, stderr, code := runMain(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stdout differs from %s\ngot:\n%s\nwant:\n%s", tc.golden, got, want)
			}
		})
	}
}

// TestUsageErrorsSimulateNothing pins that a bad -exp, -param or -values
// exits 2 before any run and before the sweep's CSV header: at the default
// window a rejected name used to cost minutes of prewarming.
func TestUsageErrorsSimulateNothing(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig99"},
		{"-exp", "sweep", "-param", "bogus"},
		{"-exp", "sweep", "-param", "rob", "-values", "32,x"},
		{"-exp", "sweep", "-param", "rob", "-values", "0"},
	} {
		stdout, stderr, code := runMain(t, args...)
		if code != 2 || len(stdout) != 0 || len(stderr) == 0 {
			t.Errorf("experiments %v: exit %d, stdout %q, stderr %q; want exit 2, no stdout and a message",
				args, code, stdout, stderr)
		}
	}
}
