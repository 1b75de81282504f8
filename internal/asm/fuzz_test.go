package asm

import (
	"testing"
)

// FuzzAssemble is the front end's totality and canonicality fuzz target.
// It runs the uncached assembler, so every input is really assembled:
//
//  1. Assemble never panics, whatever the input — every failure is a
//     positioned *Error with 1-based coordinates.
//  2. Any program that assembles must round-trip: its canonical String()
//     re-assembles to an identical canonical form, an identical pcBase
//     and an identical execution-schedule fingerprint. The canonical
//     rendering is the workload's cache identity, so a non-fixpoint
//     rendering would split cache entries between spellings.
//  3. The schedule NewStream replays is ScheduleLen long and equals,
//     instruction for instruction, the one the reference emulator in
//     reference_test.go produces, and the fingerprint Assemble streams
//     out while emulating equals the reference fmt formula over the
//     reference schedule.
func FuzzAssemble(f *testing.F) {
	seeds := []string{
		"",
		"nop\n",
		"li x1, 5\nadd x2, x1, x1\nsw x2, 0(x1)\n",
		".name t\n.loop 32\ntop:\naddi x1, x1, 1\nli x2, 3\nblt x1, x2, top\n",
		"lw x1, -4(x2)\nbeq x1, x0, end\nnop\nend:\n",
		"flw f1, 0(x1)\nfadd.s f2, f1, f1\nfsw f2, 4(x1)\n",
		"li x1, 0xEDB88320\nxori x1, x1, -1\n",
		"j skip\nnop\nskip:\nfence\n",
		"mul x3, x1, x2\ndivu x4, x3, x1\nremu x5, x3, x2\n",
		".loop 9999999999\nnop\n",
		"x32:\n",
		"add x1, x2\n",
		"label: label2: nop\n",
		"sb x1, 255(x2)\nlbu x3, 255(x2)\n",
		memoryEdgePrograms["straddle-page"],
		memoryEdgePrograms["wrap"],
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Bound the schedule so adversarial .loop bounds don't turn the
		// fuzzer into a long-running emulator.
		opt := Options{MaxSchedule: 4096}
		p, err := assemble(src, opt) // must not panic
		if err != nil {
			var ae *Error
			if !asError(err, &ae) {
				t.Fatalf("non-*Error failure %T: %v", err, err)
			}
			if ae.Line < 1 || ae.Col < 1 {
				t.Fatalf("unpositioned diagnostic %+v", ae)
			}
			return
		}
		sched := p.schedule()
		if len(sched) != p.ScheduleLen() {
			t.Fatalf("schedule has %d instructions, ScheduleLen says %d", len(sched), p.ScheduleLen())
		}
		checkAgainstReference(t, p)
		canon := p.String()
		p2, err2 := assemble(canon, opt)
		if err2 != nil {
			t.Fatalf("canonical form does not re-assemble: %v\nsource: %q\ncanonical:\n%s", err2, src, canon)
		}
		if got := p2.String(); got != canon {
			t.Fatalf("canonical rendering not a fixpoint\nfirst:\n%s\nsecond:\n%s", canon, got)
		}
		if p2.Fingerprint() != p.Fingerprint() || p2.PCBase() != p.PCBase() {
			t.Fatalf("round trip changed identity: fp %s->%s pcBase %#x->%#x",
				p.Fingerprint(), p2.Fingerprint(), p.PCBase(), p2.PCBase())
		}
	})
}

// asError is errors.As for the fuzz target without importing errors in
// the hot loop signature.
func asError(err error, target **Error) bool {
	ae, ok := err.(*Error)
	if ok {
		*target = ae
	}
	return ok
}
