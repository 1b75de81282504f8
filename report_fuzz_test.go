package shelfsim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeReport feeds arbitrary bytes to DecodeReport, the reader of
// every stored and served report: it must never panic, every report it
// accepts carries this build's SchemaVersion, and re-encoding is a
// fixpoint — marshalling the decoded report, decoding that and marshalling
// again yields the same bytes, so a report read from disk or the wire
// re-serves byte-identically.
func FuzzDecodeReport(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "report_v1.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, n := range []int{0, 1, len(golden) / 4, len(golden) / 2, len(golden) - 2, len(golden) - 1} {
		f.Add(golden[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
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
