package shelfsim

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

const testProg = `
.name reqtest
.loop 1024
	li x1, 0x1000
	li x2, 0
	li x3, 16
top:
	lw x4, 0(x1)
	add x5, x5, x4
	sw x5, 64(x1)
	addi x1, x1, 4
	addi x2, x2, 1
	blt x2, x3, top
`

// TestWorkloadUnionExclusive: the two workload arms are mutually
// exclusive and the FieldError names the conflicting fields.
func TestWorkloadUnionExclusive(t *testing.T) {
	cases := []struct {
		name    string
		req     Request
		field   string
		mention string
	}{
		{"kernels+programs",
			Request{Preset: "base64", Kernels: []string{"stream"}, Programs: []string{testProg}, Insts: 100},
			"kernels", "kernels and programs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.req.Resolve()
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v is not a *FieldError", err)
			}
			if fe.Field != tc.field {
				t.Errorf("field %q, want %q", fe.Field, tc.field)
			}
			if !strings.Contains(fe.Msg, tc.mention) {
				t.Errorf("message %q does not name the conflict %q", fe.Msg, tc.mention)
			}
		})
	}
}

// TestProgramRequestErrors: per-program validation failures are typed,
// name the offending program by index, and unwrap to the assembler's
// positioned diagnostic.
func TestProgramRequestErrors(t *testing.T) {
	t.Run("bad program indexed", func(t *testing.T) {
		req := Request{Preset: "base64", Threads: 2,
			Programs: []string{testProg, "nop\nbad!\n"}, Insts: 100}
		_, err := req.Resolve()
		var fe *FieldError
		if !errors.As(err, &fe) || fe.Field != "programs[1]" {
			t.Fatalf("error %v does not name programs[1]", err)
		}
		var ae *AsmError
		if !errors.As(err, &ae) || ae.Line != 2 {
			t.Fatalf("error %v does not carry the line-2 diagnostic", err)
		}
	})
	t.Run("count mismatch", func(t *testing.T) {
		req := Request{Preset: "base64", Threads: 2, Programs: []string{testProg}, Insts: 100}
		_, err := req.Resolve()
		var fe *FieldError
		if !errors.As(err, &fe) || fe.Field != "programs" {
			t.Fatalf("error %v does not name programs", err)
		}
	})
	t.Run("asm bound override enforced", func(t *testing.T) {
		bound := int64(100)
		req := Request{Preset: "base64", Programs: []string{".loop 5000\nnop\n"}, Insts: 100,
			Overrides: &Overrides{AsmBound: &bound}}
		_, err := req.Resolve()
		var fe *FieldError
		if !errors.As(err, &fe) || fe.Field != "programs[0]" {
			t.Fatalf("error %v does not name programs[0]", err)
		}
		if !strings.Contains(fe.Msg, "exceeds the limit 100") {
			t.Fatalf("message %q does not cite the configured bound", fe.Msg)
		}
	})
}

// TestProgramCacheKeyIdentity: the cache key survives a JSON round trip
// and is shared between textual respellings of the same program — and
// differs once the schedule differs.
func TestProgramCacheKeyIdentity(t *testing.T) {
	req := Request{Preset: "shelf64-opt", Programs: []string{testProg}, Insts: 5_000}
	key, err := req.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(key, "asm[reqtest@") {
		t.Errorf("cache key %q does not embed the program workload ID", key)
	}

	wire, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatal(err)
	}
	key2, err := back.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if key2 != key {
		t.Errorf("JSON round trip changed the cache key:\n%s\n%s", key, key2)
	}

	respelled := req
	respelled.Programs = []string{strings.ReplaceAll(testProg, "top:", "again:")}
	respelled.Programs[0] = strings.ReplaceAll(respelled.Programs[0], "blt x2, x3, top", "blt x2, x3, again")
	key3, err := respelled.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if key3 != key {
		t.Errorf("respelled program changed the cache key:\n%s\n%s", key, key3)
	}

	different := req
	different.Programs = []string{strings.ReplaceAll(testProg, "li x3, 16", "li x3, 17")}
	key4, err := different.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if key4 == key {
		t.Error("semantically different program kept the same cache key")
	}
}

// TestRunProgramRequest: a program request simulates end to end,
// deterministically, and its report carries the program cache key.
func TestRunProgramRequest(t *testing.T) {
	req := Request{Preset: "shelf64-opt", Programs: []string{testProg}, Insts: 2_000}
	res1, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Fingerprint() != res2.Fingerprint() {
		t.Errorf("program run not deterministic: %s vs %s", res1.Fingerprint(), res2.Fingerprint())
	}
	if res1.Threads[0].Workload != "reqtest" {
		t.Errorf("thread workload %q, want reqtest", res1.Threads[0].Workload)
	}

	rep, err := RunReport(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := req.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheKey != want {
		t.Errorf("report cache key %q, want %q", rep.CacheKey, want)
	}
}

// TestRunProgramChipRequest: program workloads compose with chip mode —
// one program per software thread across cores.
func TestRunProgramChipRequest(t *testing.T) {
	cores := 2
	req := Request{
		Preset:    "shelf64-opt",
		Threads:   1,
		Programs:  []string{testProg, strings.ReplaceAll(testProg, "li x3, 16", "li x3, 8")},
		Insts:     1_000,
		Overrides: &Overrides{Cores: &cores},
	}
	res, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Threads) != 2 {
		t.Fatalf("chip run has %d threads, want 2", len(res.Threads))
	}
}
