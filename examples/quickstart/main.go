// Quickstart: simulate one 4-thread SPEC-like mix on the baseline core and
// on the shelf-augmented core, and compare per-thread CPIs.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"shelfsim"
)

func main() {
	kernels := []string{"stencil", "gups", "branchy", "matblock"}
	const insts = 20_000

	run := func(preset string) shelfsim.Result {
		res, err := shelfsim.Run(context.Background(), shelfsim.Request{
			Preset: preset, Kernels: kernels, Insts: insts,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	base, shelf := run("base64"), run("shelf64-opt")

	fmt.Println("4-thread SMT, 64-entry ROB baseline vs +64-entry shelf")
	fmt.Printf("%-12s %12s %12s %10s %10s\n", "thread", "base CPI", "shelf CPI", "speedup", "shelved")
	for i := range kernels {
		b, s := base.Threads[i], shelf.Threads[i]
		fmt.Printf("%-12s %12.3f %12.3f %9.1f%% %9.1f%%\n",
			kernels[i], b.CPI, s.CPI, 100*(b.CPI/s.CPI-1), 100*s.ShelfFraction)
	}
	fmt.Printf("\nshelf issues: %d of %d (%.1f%%)\n",
		shelf.Stats.ShelfIssues, shelf.Stats.Issues,
		100*float64(shelf.Stats.ShelfIssues)/float64(shelf.Stats.Issues))
	fmt.Printf("avg occupancy: ROB %.1f->%.1f  IQ %.1f->%.1f  shelf 0->%.1f\n",
		base.Stats.AvgOccupancy(base.Stats.ROBOccupancy),
		shelf.Stats.AvgOccupancy(shelf.Stats.ROBOccupancy),
		base.Stats.AvgOccupancy(base.Stats.IQOccupancy),
		shelf.Stats.AvgOccupancy(shelf.Stats.IQOccupancy),
		shelf.Stats.AvgOccupancy(shelf.Stats.ShelfOccupancy))
}
