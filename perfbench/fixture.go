package main

import (
	"context"
	"fmt"
	"os"

	"shelfsim"
	"shelfsim/internal/store"
)

// buildFixture writes the serve-* workloads' store into dir (emptied
// first): the hot set, simulated in-process and checked against exp, plus
// filler entries up to n, so that set-up opens a store of realistic size.
// A filler entry is the first hot report filed under a key no request
// asks for. The same set and n always give the same files.
func buildFixture(dir string, set []item, n int, exp *expected) error {
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("clearing fixture: %w", err)
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	var first shelfsim.Report
	for i, it := range set {
		rep, err := shelfsim.RunReport(context.Background(), it.Req)
		if err != nil {
			return fmt.Errorf("fixture %s: %w", it.Label, err)
		}
		if !exp.ok(it.Label, rep.ResultFingerprint) {
			return fmt.Errorf("fixture %s: result fingerprint %s is not the expected one", it.Label, rep.ResultFingerprint)
		}
		if err := st.Put(rep.CacheKey, rep); err != nil {
			return err
		}
		if i == 0 {
			first = rep
		}
	}
	for i := len(set); i < n; i++ {
		filler := first
		filler.CacheKey = fmt.Sprintf("filler/%04d/%s", i, first.CacheKey)
		if err := st.Put(filler.CacheKey, filler); err != nil {
			return err
		}
	}
	return nil
}
