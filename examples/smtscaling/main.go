// SMT scaling: the paper's core observation (Fig. 1) — as SMT thread
// count grows, thread interleaving spreads dependent instructions apart
// and an increasing fraction of instructions issues in program order,
// wasting out-of-order resources.
//
//	go run ./examples/smtscaling
package main

import (
	"context"
	"fmt"
	"log"

	"shelfsim"
)

func main() {
	const insts = 8_000
	fmt.Printf("%-8s %14s %10s  per-thread in-sequence fractions\n",
		"threads", "in-seq (mean)", "IPC")

	for _, threads := range []int{1, 2, 4, 8} {
		var kernels []string
		for _, k := range shelfsim.PaperMixes(threads)[0].Kernels {
			kernels = append(kernels, k.Name)
		}
		res, err := shelfsim.Run(context.Background(), shelfsim.Request{
			Preset: "base128", Kernels: kernels, Insts: insts,
		})
		if err != nil {
			log.Fatal(err)
		}
		var sum float64
		detail := ""
		for _, tr := range res.Threads {
			sum += tr.InSeqFraction
			detail += fmt.Sprintf(" %s=%.0f%%", tr.Workload, 100*tr.InSeqFraction)
		}
		fmt.Printf("%-8d %13.1f%% %10.3f %s\n",
			threads, 100*sum/float64(threads), res.Stats.IPC(), detail)
	}
	fmt.Println("\n(128-entry window; the paper's Fig. 1 rises from ~22% at one")
	fmt.Println("thread to >50% at four — the headroom the shelf exploits.)")
}
