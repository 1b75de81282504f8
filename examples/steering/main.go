// Steering policy comparison: the same hybrid window under the four
// dispatch steering policies of the paper's §IV — everything to the IQ
// (pure OOO), everything to the shelf (in-order), the greedy oracle, and
// the practical RCT/PLT hardware mechanism.
//
//	go run ./examples/steering
package main

import (
	"context"
	"fmt"
	"log"

	"shelfsim"
)

func main() {
	kernels := []string{"gups", "fpdense", "prodcons", "callret"}
	const insts = 15_000

	policies := []struct {
		name  string
		steer shelfsim.SteerKind
	}{
		{"all-IQ (pure OOO)", shelfsim.SteerAllIQ},
		{"all-shelf (in-order)", shelfsim.SteerAllShelf},
		{"practical (RCT+PLT)", shelfsim.SteerPractical},
		{"oracle (greedy)", shelfsim.SteerOracle},
		{"coarse (MorphCore)", shelfsim.SteerCoarse},
	}

	fmt.Printf("%-22s %10s %10s %10s\n", "policy", "IPC", "shelved", "squashes")
	for _, p := range policies {
		cfg := shelfsim.Shelf64(4, true)
		cfg.Steer = p.steer
		if p.steer == shelfsim.SteerCoarse {
			cfg.CoarseInterval = 1000
		}
		cfg.Name = p.name
		res, err := shelfsim.Run(context.Background(), shelfsim.Request{
			Config: &cfg, Kernels: kernels, Insts: insts,
		})
		if err != nil {
			log.Fatal(err)
		}
		shelved := float64(res.Stats.ShelfIssues) / float64(res.Stats.Issues)
		fmt.Printf("%-22s %10.3f %9.1f%% %10d\n",
			p.name, res.Stats.IPC(), 100*shelved, res.Stats.Squashes)
	}
}
