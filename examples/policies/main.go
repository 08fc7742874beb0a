// Detour-policy ablation (paper §7): the paper ships the parameter-free
// random policy and sketches richer ones — load-aware, flow-based,
// probabilistic. This example pits the first three (plus plain drop-tail)
// against a hard incast workload on the K=8 fat-tree and on JellyFish,
// whose higher path diversity §7 argues suits detouring well.
// Probabilistic detouring is left out: it detours early only
// priority-tagged packets, so it needs the pFabric transport
// (dibs.PFabric) and would repeat the random row on this DCTCP workload.
//
//	go run ./examples/policies
package main

import (
	"fmt"

	"dibs"
)

func main() {
	policies := []struct {
		name string
		on   bool
		pol  dibs.DetourPolicy
	}{
		{"droptail", false, ""},
		{"random", true, dibs.PolicyRandom},
		{"load-aware", true, dibs.PolicyLoadAware},
		{"flow-based", true, dibs.PolicyFlowBased},
	}

	for _, topoName := range []string{"fattree-k8", "jellyfish"} {
		fmt.Printf("== %s ==\n", topoName)
		fmt.Printf("%-14s %10s %10s %10s %9s\n", "policy", "QCT99", "FCT99", "detours", "drops")
		for _, p := range policies {
			cfg := dibs.DefaultConfig()
			cfg.Duration = 250 * dibs.Millisecond
			cfg.Query = &dibs.QueryConfig{QPS: 1000, Degree: 40, ResponseBytes: 20_000}
			if topoName == "jellyfish" {
				cfg.Topo = dibs.TopoJellyfish
				cfg.JellyfishSwitches = 20
				cfg.JellyfishDegree = 6
				cfg.JellyfishHostsPer = 4
				cfg.Query.Degree = 20
			}
			cfg.DIBS = p.on
			if p.on {
				cfg.Policy = p.pol
			}
			r := dibs.Run(cfg)
			fmt.Printf("%-14s %8.2fms %8.2fms %10d %9d\n",
				p.name, r.QCT99, r.ShortFCT99, r.Detours, r.TotalDrops)
		}
		fmt.Println()
	}
}
