package core

import (
	"math/rand"
	"testing"

	"shelfsim/internal/config"
	"shelfsim/internal/mem"
)

// event is a pending completion as the binary heap the calendar replaced
// kept it: uop u writes back at cycle, ties broken by gseq.
type event struct {
	cycle int64
	gseq  int64
	u     *uop
}

// eventHeap is that binary min-heap over (cycle, gseq), kept as the
// reference order for the calendar.
type eventHeap struct {
	h []event
}

func eventLess(a, b event) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.gseq < b.gseq
}

func (eh *eventHeap) push(e event) {
	eh.h = append(eh.h, e)
	i := len(eh.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(eh.h[i], eh.h[parent]) {
			break
		}
		eh.h[i], eh.h[parent] = eh.h[parent], eh.h[i]
		i = parent
	}
}

func (eh *eventHeap) pop() event {
	top := eh.h[0]
	last := len(eh.h) - 1
	eh.h[0] = eh.h[last]
	eh.h = eh.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(eh.h) && eventLess(eh.h[l], eh.h[smallest]) {
			smallest = l
		}
		if r < len(eh.h) && eventLess(eh.h[r], eh.h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		eh.h[i], eh.h[smallest] = eh.h[smallest], eh.h[i]
		i = smallest
	}
}

// TestCalendarMatchesHeap pushes random completions — several per cycle,
// with gseq stamps out of age order, many landing on one cycle and some
// far beyond the ring — and requires the calendar to drain each cycle in
// exactly the order the reference heap pops it.
func TestCalendarMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cal := new(calendar)
		var ref eventHeap
		gseqs := rng.Perm(1 << 16)
		next := 0
		const lastPush = 3000
		for now := int64(1); now <= lastPush+4*calendarSlots; now++ {
			var want []*uop
			for len(ref.h) > 0 && ref.h[0].cycle <= now {
				want = append(want, ref.pop().u)
			}
			var got []*uop
			for u := cal.take(now); u != nil; {
				nu := u.evNext
				u.evNext = nil
				cal.pending--
				got = append(got, u)
				u = nu
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d cycle %d: calendar drained %d completions, heap %d", seed, now, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d cycle %d slot %d: calendar drained (%d,%d), heap (%d,%d)", seed, now, i,
						got[i].completeCycle, got[i].gseq, want[i].completeCycle, want[i].gseq)
				}
			}
			if now > lastPush {
				continue // let everything drain
			}
			for n := rng.Intn(6); n > 0; n-- {
				var d int64
				switch rng.Intn(4) {
				case 0:
					d = 1 + rng.Int63n(4) // same few cycles: gseq ties on one cycle
				case 1:
					d = calendarSlots - 2 + rng.Int63n(5) // the ring's edge
				case 2:
					d = calendarSlots + 1 + rng.Int63n(3*calendarSlots) // overflow
				default:
					d = 1 + rng.Int63n(calendarSlots)
				}
				u := &uop{completeCycle: now + d, gseq: int64(gseqs[next])}
				next++
				cal.push(u, now)
				ref.push(event{cycle: u.completeCycle, gseq: u.gseq, u: u})
			}
		}
		if cal.pending != 0 || cal.overflow != nil {
			t.Fatalf("seed %d: %d completions left pending", seed, cal.pending)
		}
	}
}

// TestCalendarCoversDefaultHierarchy: a DRAM miss in the default memory
// hierarchy completes within the calendar's ring, so steady state never
// touches the overflow chain unless a miss waits for an MSHR.
func TestCalendarCoversDefaultHierarchy(t *testing.T) {
	cfg := mem.DefaultHierarchyConfig()
	miss := 1 + cfg.L1D.LatencyCycles + cfg.L2.LatencyCycles + cfg.MemLatencyCycles
	if miss >= calendarSlots {
		t.Errorf("default DRAM round trip %d cycles does not fit the %d-slot calendar", miss, calendarSlots)
	}
}

// TestSlowMemoryUsesOverflow checks that TestSlowMemoryFingerprint's
// configuration really schedules completions beyond the ring.
func TestSlowMemoryUsesOverflow(t *testing.T) {
	cfg := config.Shelf64(4, true)
	cfg.Mem.MemLatencyCycles = 400
	c, err := New(cfg, kernelStreams(t, []string{"gups", "ptrchase", "stream", "hashprobe"}, 1000))
	if err != nil {
		t.Fatal(err)
	}
	for !c.Done() && c.events.overflow == nil {
		c.Step()
	}
	if c.events.overflow == nil {
		t.Fatal("no completion was scheduled beyond the calendar's ring")
	}
}
