package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"shelfsim"
	"shelfsim/internal/harness"
)

// expected is the checked-in record of correct outputs (expected.json):
// the result fingerprint of every request in every universe, keyed by item
// label, and fig10-batch's per-mix STP rows. It is generated in-process by
// -regen-expected and never written during a measured run.
type expected struct {
	Fingerprints map[string]string    `json:"fingerprints"`
	STP          map[string][4]string `json:"fig10_stp"`
}

// expectedFile is expected.json's path relative to the repository root.
const expectedFile = "perfbench/expected.json"

func loadExpected(path string) (*expected, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading expected outputs: %w", err)
	}
	var e expected
	if err := json.Unmarshal(blob, &e); err != nil {
		return nil, fmt.Errorf("decoding expected outputs: %w", err)
	}
	return &e, nil
}

// ok reports whether fp is the expected fingerprint of label.
func (e *expected) ok(label, fp string) bool {
	want, found := e.Fingerprints[label]
	return found && want == fp
}

// stpRow renders one Fig10 row the way expected.json stores it.
func stpRow(r harness.MixSTP) [4]string {
	f := func(v float64) string { return fmt.Sprintf("%.17g", v) }
	return [4]string{f(r.Base64), f(r.ShelfCons), f(r.ShelfOpt), f(r.Base128)}
}

// regenerate simulates every request of every universe and the
// fig10-batch jobs in-process and rewrites expected.json.
func regenerate(root string, workers int) error {
	progs, err := loadPrograms(root)
	if err != nil {
		return err
	}
	items := append(hotUniverse(), asmUniverse(progs)...)
	for _, g := range coldUniverse() {
		items = append(items, g...)
	}
	for _, g := range chipUniverse() {
		items = append(items, g...)
	}
	e := expected{Fingerprints: map[string]string{}, STP: map[string][4]string{}}

	var mu sync.Mutex
	var firstErr error
	next := make(chan item)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range next {
				rep, err := shelfsim.RunReport(context.Background(), it.Req)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", it.Label, err)
				}
				e.Fingerprints[it.Label] = rep.ResultFingerprint
				mu.Unlock()
			}
		}()
	}
	for _, it := range items {
		next <- it
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	h := harness.New(figInsts, figMixes)
	for _, j := range figJobs() {
		res, err := h.Run(j.cfg, j.mix)
		if err != nil {
			return fmt.Errorf("%s: %w", j.label, err)
		}
		e.Fingerprints[j.label] = res.Fingerprint()
	}
	rows, err := h.Fig10(figThreads)
	if err != nil {
		return err
	}
	for _, r := range rows {
		e.STP[r.Mix.Name()] = stpRow(r)
	}

	blob, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding expected outputs: %w", err)
	}
	return os.WriteFile(root+"/"+expectedFile, append(blob, '\n'), 0o644)
}
