package shelfsim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeReport is a differential: for any bytes, DecodeReport and
// referenceDecode (json.Unmarshal plus the schema version check) both
// reject them, or both accept them with reflect.DeepEqual values. So the
// one-pass fast path reads exactly what encoding/json reads wherever it
// accepts, and defers to it everywhere else. DecodeReport never panics,
// and re-encoding an accepted report is a fixpoint: marshalling the
// decoded report, decoding that and marshalling again yields the same
// bytes, so a report read from disk or the wire re-serves
// byte-identically. The seeds are compact real reports (4-thread,
// 2-thread, 2-core chip, the serve-asm programs, telemetry on), one
// non-canonical variant per fallback rule, and prefixes of the golden
// report.
func FuzzDecodeReport(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "report_v1.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, n := range []int{0, 1, len(golden) / 4, len(golden) / 2, len(golden) - 2, len(golden) - 1} {
		f.Add(golden[:n])
	}
	for _, seed := range decodeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeDifferential(t, data)
		rep, err := DecodeReport(data)
		if err != nil {
			return
		}
		if rep.SchemaVersion != SchemaVersion {
			t.Fatalf("accepted a report with schema version %d, want %d", rep.SchemaVersion, SchemaVersion)
		}
		once, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("marshalling an accepted report: %v", err)
		}
		again, err := DecodeReport(once)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", once, err)
		}
		twice, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("re-marshalling: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixpoint:\n%s\n%s", once, twice)
		}
	})
}
