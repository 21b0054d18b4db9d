// Designspace replays the paper's §VI story on one benchmark: scaling one
// level of the memory hierarchy in isolation can do little — or actively
// hurt — while scaling adjacent levels together is synergistic.
//
// It runs matrix multiply (the paper's most bandwidth-sensitive workload)
// against the six 4×-scaled design points of Fig. 10 on the experiment
// engine — the seven simulation cells run concurrently on a worker pool
// and the shared baseline cell simulates once — then prints the speedups,
// highlighting the two headline effects:
//
//  1. L1-alone can slow the workload down (more requests pour into an
//     already congested L2).
//  2. L1+L2 together beat both, and beat an HBM-class DRAM upgrade.
package main

import (
	"fmt"
	"log"

	"gpumembw"
)

func main() {
	const bench = "mm"
	configs := []gpumembw.Config{
		gpumembw.Baseline(), // column 0: what every speedup is relative to
		gpumembw.ScaledL1(),
		gpumembw.ScaledL2(),
		gpumembw.ScaledDRAM(),
		gpumembw.ScaledL1L2(),
		gpumembw.ScaledL2DRAM(),
		gpumembw.ScaledAll(),
	}

	s := gpumembw.NewScheduler()
	grid, err := s.Sweep(gpumembw.SweepConfigs(configs), []gpumembw.WorkloadRef{gpumembw.BenchRef(bench)})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("design-space exploration on %q (4x scaling per level)\n\n", bench)
	fmt.Printf("  %-12s %8s\n", "config", "speedup")
	fmt.Printf("  %-12s %8s\n", "------", "-------")
	results := map[string]float64{}
	for c, sp := range grid.Speedups(0)[0][1:] {
		name := grid.Configs[c+1]
		results[name] = sp
		fmt.Printf("  %-12s %7.2fx\n", name, sp)
	}
	st := s.Stats()
	fmt.Printf("\n  (%d cells simulated, %d served from cache)\n", st.Simulated, st.CacheHits)

	fmt.Println()
	if results["L1-4x"] < 1.02 {
		fmt.Println("* scaling L1 alone does not help: the extra outstanding misses")
		fmt.Println("  only deepen the congestion between L1 and L2 (paper §VI-A1).")
	}
	if results["L1+L2-4x"] > results["L2-4x"] {
		fmt.Println("* L1+L2 beats L2 alone: once the L2 can absorb the demand, the")
		fmt.Println("  extra L1 bandwidth finally pays off (synergistic scaling).")
	}
	if results["L2-4x"] > results["DRAM-4x"] {
		fmt.Println("* scaling the cache hierarchy beats an HBM-class DRAM upgrade:")
		fmt.Println("  the bottleneck for this workload is on-chip, not off-chip.")
	}
}
