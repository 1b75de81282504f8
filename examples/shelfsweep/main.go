// Shelf capacity sweep: how much FIFO capacity does the hybrid window
// need? Sweeps the total shelf size on a 4-thread mix and reports
// throughput and occupancy — the ablation behind the paper's choice of a
// 64-entry shelf.
//
//	go run ./examples/shelfsweep
package main

import (
	"context"
	"fmt"
	"log"

	"shelfsim"
)

func main() {
	kernels := []string{"hashprobe", "ilpmax", "reduce", "callret"}
	const insts = 15_000

	run := func(cfg shelfsim.Config) shelfsim.Result {
		res, err := shelfsim.Run(context.Background(), shelfsim.Request{
			Config: &cfg, Kernels: kernels, Insts: insts,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	base := run(shelfsim.Base64(4))
	baseIPC := base.Stats.IPC()
	fmt.Printf("%-10s %10s %12s %12s %12s\n", "shelf", "IPC", "vs base", "occupancy", "shelved")

	for _, size := range []int{0, 16, 32, 64, 128} {
		cfg := shelfsim.Shelf64(4, true)
		cfg.Shelf = size
		if size == 0 {
			cfg.Steer = shelfsim.SteerAllIQ
		}
		cfg.Name = fmt.Sprintf("shelf%d", size)
		res := run(cfg)
		shelved := 0.0
		if res.Stats.Issues > 0 {
			shelved = float64(res.Stats.ShelfIssues) / float64(res.Stats.Issues)
		}
		fmt.Printf("%-10d %10.3f %+11.1f%% %12.1f %11.1f%%\n",
			size, res.Stats.IPC(), 100*(res.Stats.IPC()/baseIPC-1),
			res.Stats.AvgOccupancy(res.Stats.ShelfOccupancy), 100*shelved)
	}
}
