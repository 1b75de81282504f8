package shelfsim

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// decodeCase is one real run's report, the shapes a store or a client
// decodes: single-core at two thread counts, a 2-core chip, the serve-asm
// programs, and a run with telemetry (whose obs the fast path declines).
type decodeCase struct {
	name    string
	req     Request
	hasObs  bool
	encoded []byte
	rep     Report
}

// decodeCases runs each case's request once per test binary.
var decodeCases = sync.OnceValues(func() ([]decodeCase, error) {
	var progs []string
	for _, f := range []string{"coalesce.s", "crc.s", "dotprod.s", "listwalk.s"} {
		b, err := os.ReadFile(filepath.Join("testdata", "asm", f))
		if err != nil {
			return nil, err
		}
		progs = append(progs, string(b))
	}
	cores, alloc, on := 2, "icount", true
	cases := []decodeCase{
		{name: "4-thread", req: Request{Preset: "shelf64-opt",
			Kernels: []string{"callret", "ilpmax", "ptrchase", "gups"}, Insts: 2000}},
		{name: "2-thread", req: Request{Preset: "base64",
			Kernels: []string{"stream", "branchy"}, Insts: 1000}},
		{name: "chip", req: Request{Preset: "shelf64-opt", Threads: 2,
			Kernels: []string{"callret", "ilpmax", "ptrchase", "gups"}, Insts: 1000,
			Overrides: &Overrides{Cores: &cores, Alloc: &alloc}}},
		{name: "asm", req: Request{Preset: "shelf64-opt", Programs: progs, Insts: 1000}},
		{name: "telemetry", req: Request{Preset: "shelf64-opt",
			Kernels: []string{"stream", "branchy"}, Insts: 1000,
			Overrides: &Overrides{Telemetry: &on}}, hasObs: true},
	}
	for i := range cases {
		c := &cases[i]
		rep, err := RunReport(context.Background(), c.req)
		if err != nil {
			return nil, err
		}
		if c.encoded, err = json.Marshal(rep); err != nil {
			return nil, err
		}
		c.rep = rep
	}
	return cases, nil
})

func realDecodeCases(t testing.TB) []decodeCase {
	t.Helper()
	cases, err := decodeCases()
	if err != nil {
		t.Fatal(err)
	}
	return cases
}

// referenceDecode is DecodeReport as it was before the fast path:
// json.Unmarshal plus the schema version check. It defines what
// DecodeReport must return for every input.
func referenceDecode(data []byte) (Report, bool) {
	var rep Report
	if json.Unmarshal(data, &rep) != nil || rep.SchemaVersion != SchemaVersion {
		return rep, false
	}
	return rep, true
}

// TestDecodeFastPathReadsMarshalledReports pins the gain: the fast path
// itself, not the json.Unmarshal fallback, reads what json.Marshal gives
// for every real report without telemetry, into the value
// json.Unmarshal gives. A field type the plan cannot read would silently
// send every report to the fallback; this test fails instead.
func TestDecodeFastPathReadsMarshalledReports(t *testing.T) {
	for _, c := range realDecodeCases(t) {
		t.Run(c.name, func(t *testing.T) {
			var fast Report
			ok := decodeFast(c.encoded, &fast)
			if c.hasObs {
				if ok {
					t.Fatal("the fast path read a report carrying telemetry; obs is not planned")
				}
				return
			}
			if !ok {
				t.Fatalf("the fast path declined a marshalled %s report:\n%s", c.name, c.encoded)
			}
			want, _ := referenceDecode(c.encoded)
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("fast path read %+v\njson.Unmarshal read %+v", fast, want)
			}
			if !reflect.DeepEqual(fast, c.rep) {
				t.Fatalf("fast path read %+v\nthe run reported %+v", fast, c.rep)
			}
		})
	}
}

// TestDecodeReportMatchesReference: on every real report and on one
// non-canonical variant per fallback rule, DecodeReport and
// referenceDecode both reject the input or both accept it with equal
// values. FuzzDecodeReport explores the same property from these seeds.
func TestDecodeReportMatchesReference(t *testing.T) {
	for _, data := range decodeSeeds(t) {
		checkDecodeDifferential(t, data)
	}
}

// checkDecodeDifferential fails t if DecodeReport and referenceDecode
// disagree on data.
func checkDecodeDifferential(t *testing.T, data []byte) {
	t.Helper()
	got, err := DecodeReport(data)
	want, ok := referenceDecode(data)
	switch {
	case (err == nil) != ok:
		t.Fatalf("DecodeReport error %v, reference accepts: %v, on %q", err, ok, data)
	case ok && !reflect.DeepEqual(got, want):
		t.Fatalf("DecodeReport read %+v\nreference read %+v\nfrom %q", got, want, data)
	}
}

// decodeSeeds is every real report plus the non-canonical variants of
// the 4-thread one: each breaks one of the fast path's rules, so the
// fallback must read it (or reject it) exactly as json.Unmarshal does.
func decodeSeeds(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte
	for _, c := range realDecodeCases(t) {
		seeds = append(seeds, c.encoded)
	}
	base := string(realDecodeCases(t)[0].encoded)
	edit := func(old, new string) []byte {
		if !strings.Contains(base, old) {
			t.Fatalf("the 4-thread report has no %q to edit", old)
		}
		return []byte(strings.Replace(base, old, new, 1))
	}
	var stats struct {
		Stats json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal([]byte(base), &stats); err != nil {
		t.Fatal(err)
	}
	threadsAt := strings.Index(base, `"threads":`)
	threads := base[threadsAt:strings.Index(base, `,"l1i":`)]
	// set replaces the value of key's first occurrence.
	set := func(key, val string) []byte {
		at := strings.Index(base, `"`+key+`":`)
		if at < 0 {
			t.Fatalf("the 4-thread report has no key %q", key)
		}
		from := at + len(key) + 3
		to := from + strings.IndexAny(base[from:], ",}")
		if base[from] == '[' {
			to = from + strings.IndexByte(base[from:], ']') + 1
		}
		return []byte(base[:from] + val + base[to:])
	}
	seeds = append(seeds,
		edit(`"config":"shelf64-opt"`, `"config":"shelf64\u002dopt"`), // an escape
		edit(`"cycles":`, `"CYCLES":`),                                // a case-folded key
		edit(`"cycles":`, `"unknown":1,"cycles":`),                    // an unknown key
		edit(`"schema_version":1,"config":"shelf64-opt"`,
			`"config":"shelf64-opt","schema_version":1`), // reordered keys
		edit(`"threads":`, `"stats":{"Fetched":7},"threads":`),            // a duplicate stats merges
		edit(`,"l1i":`, ","+threads+`,"l1i":`),                            // a duplicate threads replaces
		edit(`"cache_key":`, `"obs":null,"cache_key":`),                   // null
		set("cycles", "1e3"),                                              // an exponent in an int field
		set("Fetched", "1.0"),                                             // a fraction in an int field
		set("Hits", "-1"),                                                 // a sign on a uint64
		set("Hits", "-0"),                                                 // a signed zero on a uint64
		set("Hits", "18446744073709551615"),                               // 20 digits that fit a uint64
		set("Misses", "18446744073709551616"),                             // 20 digits that do not
		set("cycles", "12345678901234567890"),                             // 20 digits in an int64
		set("LoadsByLevel", "[1,2]"),                                      // a short array
		set("LoadsByLevel", "[1,2,3,4]"),                                  // a long array
		edit(`"config":"shelf64-opt"`, "\"config\":\"shelf64\xff-opt\""),  // invalid UTF-8
		edit(`"config":"shelf64-opt"`, `"config":"shelf64-\u00f3pt"`),     // escaped non-ASCII
		edit(`"config":"shelf64-opt"`, "\"config\":\"shelf64-\u00f3pt\""), // raw non-ASCII
		[]byte(base+`{}`),                                                 // trailing bytes
		[]byte(base+" \n"),                                                // trailing whitespace
		[]byte(" "+base),                                                  // leading whitespace
		[]byte(`null`),                                                    // a null report
		[]byte(`{}`),                                                      // an empty report (schema version 0)
		[]byte(`{"schema_version":1}`),
		[]byte(`{"schema_version":1,"threads":[]}`),
		[]byte(`{"schema_version":1,"threads":null}`),
		[]byte(`{"schema_version":-0,"cycles":-9223372036854775808}`),
		[]byte(`{"schema_version":1,"cycles":9223372036854775808}`),
		[]byte(`{"schema_version":1,"cycles":01}`),
		[]byte(`{"schema_version":1,"threads":[{"cpi":-0.0}]}`),
		[]byte(`{"schema_version":1,"threads":[{"cpi":1e400}]}`),
		[]byte(`{"schema_version":1,"threads":[{"cpi":1.}]}`),
		[]byte(`{"schema_version":1,"threads":[{"cpi":"1"}]}`),
		[]byte(`{"schema_version":1,"threads":[{"workload":1}]}`),
		[]byte(`{"schema_version":1,"config":"a"`),
		[]byte(`{"schema_version":1,}`),
		[]byte(`[{"schema_version":1}]`),
		append([]byte(`{"schema_version":1,"stats":`), stats.Stats...),
	)
	return seeds
}

// TestDecodeReportAllocs bounds the fast path's allocations on the real
// 4-thread report: the Report, its thread slice and its strings (four
// identity strings and four workload names).
func TestDecodeReportAllocs(t *testing.T) {
	data := realDecodeCases(t)[0].encoded
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeReport(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Errorf("DecodeReport made %.0f allocations per call, want at most 10", allocs)
	}
}

// BenchmarkDecodeReport decodes a real 4-thread report, the shape of a
// serve-hot response.
func BenchmarkDecodeReport(b *testing.B) {
	data := realDecodeCases(b)[0].encoded
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeReport(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCheckResultFingerprint: every real report's fingerprint recomputes
// from its own fields, and one flipped outcome digit does not.
func TestCheckResultFingerprint(t *testing.T) {
	for _, c := range realDecodeCases(t) {
		rep, err := DecodeReport(c.encoded)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.CheckResultFingerprint(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		rep.Threads[len(rep.Threads)-1].CPI += 1e-9
		if rep.CheckResultFingerprint() == nil {
			t.Errorf("%s: a changed thread CPI still matches the fingerprint", c.name)
		}
		rep.Threads[len(rep.Threads)-1].CPI = c.rep.Threads[len(rep.Threads)-1].CPI
		rep.Stats.LoadsByLevel[2]++
		if rep.CheckResultFingerprint() == nil {
			t.Errorf("%s: a changed load count still matches the fingerprint", c.name)
		}
	}
}
