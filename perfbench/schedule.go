package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"shelfsim"
	"shelfsim/internal/workload"
)

// The request universes. Every request a workload can send, for any seed,
// is one of these, so expected.json can hold the expected fingerprint of
// each; a seed only chooses and orders items.
const (
	// hotInsts is the window of the hot-set kernel requests; serving cost
	// does not depend on it, so it is small to keep the fixture cheap.
	hotInsts = 1000
	// hotSetSize is K, the number of distinct hot requests in one run.
	hotSetSize = 16
	// coldInsts is the base window of cold requests; coldWindows distinct
	// windows coldInsts, coldInsts+coldStep, ... give every paper mix that
	// many never-repeated cache keys.
	coldInsts   = 2000
	coldStep    = 4
	coldWindows = 16
	// chipEvery makes every chipEvery-th cold request a 2-core chip request.
	chipEvery   = 8
	chipInsts   = 1000
	chipWindows = 4
	// asmInsts is the base window of the program requests; asmWindows
	// windows exist and asmSetSize of them are hot in one run.
	asmInsts   = 400
	asmWindows = 16
	asmSetSize = 8
	// fixtureEntries is N, the fixture store's size: the hot set plus
	// filler entries.
	fixtureEntries = 256
	// preset is the configuration of every served request.
	preset = "shelf64-opt"
)

// asmFiles are the checked-in programs serve-asm sends, one per thread.
var asmFiles = []string{"dotprod.s", "crc.s", "listwalk.s", "coalesce.s"}

// item is one request of a universe with its stable label (the key of its
// expected fingerprint).
type item struct {
	Label string
	Req   shelfsim.Request
}

// window is the request's measured window summed over its threads.
func (it item) window() int64 {
	return int64(len(it.Req.Kernels)+len(it.Req.Programs)) * it.Req.Insts
}

func kernelNames(m shelfsim.Mix) []string {
	names := make([]string, len(m.Kernels))
	for i, k := range m.Kernels {
		names[i] = k.Name
	}
	return names
}

// hotUniverse is one 4-thread request per paper mix.
func hotUniverse() []item {
	var out []item
	for _, m := range shelfsim.PaperMixes(4) {
		out = append(out, item{
			Label: fmt.Sprintf("hot/%s/%d", m.Name(), hotInsts),
			Req:   shelfsim.Request{Preset: preset, Kernels: kernelNames(m), Insts: hotInsts},
		})
	}
	return out
}

// coldUniverse is every paper mix at every cold window, indexed
// [mix][window].
func coldUniverse() [][]item {
	mixes := shelfsim.PaperMixes(4)
	out := make([][]item, len(mixes))
	for i, m := range mixes {
		for w := 0; w < coldWindows; w++ {
			insts := int64(coldInsts + coldStep*w)
			out[i] = append(out[i], item{
				Label: fmt.Sprintf("cold/%s/%d", m.Name(), insts),
				Req:   shelfsim.Request{Preset: preset, Kernels: kernelNames(m), Insts: insts},
			})
		}
	}
	return out
}

// chipUniverse pairs paper mixes 2p and 2p+1 into one 2-core chip
// request (four threads per core), at chipWindows windows, indexed
// [pair][window].
func chipUniverse() [][]item {
	mixes := shelfsim.PaperMixes(4)
	cores, alloc := 2, "icount"
	out := make([][]item, len(mixes)/2)
	for p := range out {
		a, b := mixes[2*p], mixes[2*p+1]
		kernels := append(kernelNames(a), kernelNames(b)...)
		for w := 0; w < chipWindows; w++ {
			insts := int64(chipInsts + coldStep*w)
			out[p] = append(out[p], item{
				Label: fmt.Sprintf("chip/%s+%s/%d", a.Name(), b.Name(), insts),
				Req: shelfsim.Request{
					Preset: preset, Kernels: kernels, Insts: insts,
					Overrides: &shelfsim.Overrides{Cores: &cores, Alloc: &alloc},
				},
			})
		}
	}
	return out
}

// loadPrograms reads the serve-asm programs from the repository's
// testdata.
func loadPrograms(root string) ([]string, error) {
	srcs := make([]string, len(asmFiles))
	for i, f := range asmFiles {
		b, err := os.ReadFile(filepath.Join(root, "testdata", "asm", f))
		if err != nil {
			return nil, fmt.Errorf("reading program: %w", err)
		}
		srcs[i] = string(b)
	}
	return srcs, nil
}

// asmUniverse is the four programs at every asm window.
func asmUniverse(progs []string) []item {
	names := strings.Join(asmFiles, "+")
	out := make([]item, asmWindows)
	for w := range out {
		insts := int64(asmInsts + coldStep*w)
		out[w] = item{
			Label: fmt.Sprintf("asm/%s/%d", names, insts),
			Req:   shelfsim.Request{Preset: preset, Programs: progs, Insts: insts},
		}
	}
	return out
}

// pick returns k items of u in a seeded order.
func pick(u []item, k int, rng *rand.Rand) []item {
	out := make([]item, k)
	for i, j := range rng.Perm(len(u))[:k] {
		out[i] = u[j]
	}
	return out
}

// hotSchedule is a closed-loop serving schedule: the hot set and, per
// client, the sequence of indices into it that client sends, cycled if a
// run outlasts it.
type hotSchedule struct {
	Set   []item
	Draws [][]int32
}

// hotDraws is each client's schedule length; a client that finishes it
// starts over.
const hotDraws = 1 << 16

// newHotSchedule draws the hot set of size k from u and each client's
// uniform request sequence over it.
func newHotSchedule(u []item, k, clients int, seed int64) hotSchedule {
	rng := rand.New(rand.NewSource(seed))
	s := hotSchedule{Set: pick(u, k, rng), Draws: make([][]int32, clients)}
	for c := range s.Draws {
		d := make([]int32, hotDraws)
		for i := range d {
			d[i] = int32(rng.Intn(k))
		}
		s.Draws[c] = d
	}
	return s
}

// coldSchedule is the serve-cold request sequence: rounds in which every
// paper mix appears once, in seeded order and at a window it has not used
// yet, with every chipEvery-th slot a chip request drawn the same way from
// the chip universe. Every item is distinct, so every request misses the
// store.
func coldSchedule(seed int64) []item {
	rng := rand.New(rand.NewSource(seed))
	return interleave(rounds(coldUniverse(), rng), rounds(chipUniverse(), rng))
}

// rounds flattens u[group][window] into rounds over the groups, each round
// a fresh permutation of the groups, each group's windows used in a
// seeded order.
func rounds(u [][]item, rng *rand.Rand) []item {
	order := make([][]int, len(u))
	for g := range u {
		order[g] = rng.Perm(len(u[g]))
	}
	var out []item
	for r := 0; r < len(u[0]); r++ {
		for _, g := range rng.Perm(len(u)) {
			out = append(out, u[g][order[g][r]])
		}
	}
	return out
}

// interleave puts one chip item in every chipEvery-th slot until either
// sequence runs out.
func interleave(kern, chip []item) []item {
	var out []item
	for len(kern) > 0 {
		if (len(out)+1)%chipEvery == 0 {
			if len(chip) == 0 {
				break
			}
			out = append(out, chip[0])
			chip = chip[1:]
			continue
		}
		out = append(out, kern[0])
		kern = kern[1:]
	}
	return out
}

// mixOrder is the seeded order in which one fig10-batch batch hands its
// mixes to Prewarm.
func mixOrder(seed int64, batch int, mixes []workload.Mix) []workload.Mix {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(batch)))
	out := make([]workload.Mix, len(mixes))
	for i, j := range rng.Perm(len(mixes)) {
		out[i] = mixes[j]
	}
	return out
}
