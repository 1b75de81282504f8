package workload

import (
	"fmt"
	"strconv"
)

// Mix is one multiprogrammed workload: an ordered set of kernels, one per
// hardware thread.
type Mix struct {
	// ID is the mix's index within its generated batch.
	ID int
	// Kernels holds one kernel per thread.
	Kernels []*Kernel
}

// Name renders "mix07[ptrchase+stream+...]".
func (m Mix) Name() string {
	b := make([]byte, 0, 64)
	b = append(b, "mix"...)
	if m.ID >= 0 && m.ID < 10 {
		b = append(b, '0') // %02d
	}
	b = strconv.AppendInt(b, int64(m.ID), 10)
	b = append(b, '[')
	for i, k := range m.Kernels {
		if i > 0 {
			b = append(b, '+')
		}
		b = append(b, k.Name...)
	}
	return string(append(b, ']'))
}

// BalancedRandomMixes builds `count` mixes of `threads` kernels each using
// the "Balanced Random" methodology of Velasquez et al. (cited by the
// paper): every kernel appears an equal number of times across the batch
// (count*threads must be divisible by the kernel count), with placement
// otherwise random under a deterministic seed.
func BalancedRandomMixes(threads, count int, seed uint64) ([]Mix, error) {
	if threads <= 0 || count <= 0 {
		return nil, fmt.Errorf("workload: non-positive mix shape %dx%d", count, threads)
	}
	slots := threads * count
	if slots%len(kernels) != 0 {
		return nil, fmt.Errorf("workload: %d mix slots not divisible by %d kernels", slots, len(kernels))
	}
	repeats := slots / len(kernels)
	pool := make([]*Kernel, 0, slots)
	for r := 0; r < repeats; r++ {
		pool = append(pool, kernels...)
	}
	// Fisher-Yates with the deterministic workload RNG.
	r := newRNG(seed ^ 0xb5297a4d)
	for i := len(pool) - 1; i > 0; i-- {
		j := r.intn(int64(i + 1))
		pool[i], pool[j] = pool[j], pool[i]
	}
	mixes := make([]Mix, count)
	for i := range mixes {
		mixes[i] = Mix{ID: i, Kernels: pool[i*threads : (i+1)*threads]}
	}
	return mixes, nil
}

// PaperMixes returns the 28 four-thread mixes used throughout the
// evaluation, matching the paper's batch size (28 mixes over its 28
// benchmarks; here 28 mixes over 14 kernels, each appearing 8 times).
func PaperMixes(threads int) []Mix {
	mixes, err := BalancedRandomMixes(threads, 28, 2016)
	if err != nil {
		panic(err)
	}
	return mixes
}
