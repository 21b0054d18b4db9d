package trace

import (
	"fmt"
	"sync"

	"gpumembw/internal/smcore"
)

// Benchmark couples a synthetic kernel spec with the reference numbers the
// paper reports for its namesake in Table II.
type Benchmark struct {
	Spec       Spec
	PaperPInf  float64 // speedup with an infinite-bandwidth memory system
	PaperPDRAM float64 // speedup with baseline caches + infinite-BW DRAM
}

// Table returns the 19 benchmarks in Table II order (sorted by P∞).
//
// Each spec is tuned so its request stream matches the qualitative
// behaviour the paper attributes to the benchmark: working sets position
// reuse at the L1, L2 or nowhere; coalescing degree sets transactions per
// instruction; store fraction loads the request network; TLP and
// dependency distance set latency tolerance; code footprint drives L1I
// pressure. The comment on each spec explains the substitution.
//
// The table is built once (a Spec has no reference fields, so sharing it
// is safe); the returned slice is a copy the caller owns.
func Table() []Benchmark { return append([]Benchmark(nil), table()...) }

var table = sync.OnceValue(func() []Benchmark {
	return []Benchmark{
		{
			// Tiled matrix multiply: per-core tiles thrash the 16 KB L1 but
			// all tiles fit in the L2 together, so the benchmark lives or
			// dies on L2 bandwidth (paper: most bandwidth-sensitive, P_DRAM
			// ≈ 1 because DRAM is barely touched after warm-up).
			Spec: Spec{
				Name: "mm", Suite: "MapReduce",
				WarpsPerCore: 48, Iters: 28,
				LoadsPerIter: 8, StoresPerIter: 1, ALUPerIter: 18,
				DepDist: 5, Pattern: PatTiled,
				WorkingSetKB: 48, SharedKB: 128, SharedFrac: 0.3,
				StoreWindowLines: 16,
				Seed:             11,
			},
			PaperPInf: 4.90, PaperPDRAM: 1.01,
		},
		{
			// Lattice-Boltzmann: long coalesced streams with a heavy store
			// component; halo reuse keeps a slice in the L2 but the bulk
			// streams from DRAM — the strongest P_DRAM in the suite.
			Spec: Spec{
				Name: "lbm", Suite: "Parboil",
				WarpsPerCore: 48, Iters: 16,
				LoadsPerIter: 5, StoresPerIter: 4, ALUPerIter: 38,
				DepDist: 6, Pattern: PatStream,
				SharedKB: 256, SharedFrac: 0.05,
				Seed: 12,
			},
			PaperPInf: 3.40, PaperPDRAM: 1.87,
		},
		{
			// Similarity Score: MapReduce join against a hot shared table
			// that lives in the L2 — cache-hierarchy-bound (P_DRAM = 1.00).
			Spec: Spec{
				Name: "ss", Suite: "MapReduce",
				WarpsPerCore: 48, Iters: 28,
				LoadsPerIter: 6, StoresPerIter: 1, ALUPerIter: 26,
				DepDist: 3, Pattern: PatHotShared,
				WorkingSetKB: 512, SharedKB: 96, SharedFrac: 0.7,
				StoreWindowLines: 16,
				Seed:             13,
			},
			PaperPInf: 3.23, PaperPDRAM: 1.00,
		},
		{
			// Nearest Neighbour: streams the record array once — memory-
			// intensive with a strong DRAM component (P_DRAM = 1.84).
			Spec: Spec{
				Name: "nn", Suite: "Rodinia",
				WarpsPerCore: 48, Iters: 24,
				LoadsPerIter: 5, StoresPerIter: 1, ALUPerIter: 30,
				DepDist: 5, Pattern: PatStream,
				SharedKB: 192, SharedFrac: 0.02,
				Seed: 14,
			},
			PaperPInf: 3.11, PaperPDRAM: 1.84,
		},
		{
			// Hybrid Sort: bucket phase with a working set twice the L2 —
			// partial reuse, a real DRAM component, store traffic.
			Spec: Spec{
				Name: "hybridsort", Suite: "Rodinia",
				WarpsPerCore: 48, Iters: 16,
				LoadsPerIter: 5, StoresPerIter: 3, ALUPerIter: 32,
				DepDist: 4, Pattern: PatRandomWS,
				WorkingSetKB: 1152, SharedKB: 128, SharedFrac: 0.25,
				Seed: 15,
			},
			PaperPInf: 3.10, PaperPDRAM: 1.24,
		},
		{
			// CFD solver: irregular gather over a mesh that fits the L2 —
			// high L1 miss rate, L2-bandwidth-bound (P_DRAM = 1.06).
			Spec: Spec{
				Name: "cfd", Suite: "Rodinia",
				WarpsPerCore: 48, Iters: 18,
				LoadsPerIter: 8, StoresPerIter: 2, ALUPerIter: 36,
				DepDist: 5, Pattern: PatRandomWS,
				WorkingSetKB: 640,
				Seed:         16,
			},
			PaperPInf: 3.08, PaperPDRAM: 1.06,
		},
		{
			// Page View Rank: reduction against hot shared rank tables.
			Spec: Spec{
				Name: "pvr", Suite: "MapReduce",
				WarpsPerCore: 48, Iters: 24,
				LoadsPerIter: 6, StoresPerIter: 2, ALUPerIter: 26,
				DepDist: 3, Pattern: PatHotShared,
				WorkingSetKB: 384, SharedKB: 64, SharedFrac: 0.6,
				StoreWindowLines: 16,
				Seed:             17,
			},
			PaperPInf: 2.89, PaperPDRAM: 1.01,
		},
		{
			// Breadth-First Search (Rodinia): data-dependent, uncoalesced
			// frontier expansion over a graph that mostly fits the L2.
			Spec: Spec{
				Name: "bfs", Suite: "Rodinia",
				WarpsPerCore: 48, Iters: 20,
				LoadsPerIter: 3, StoresPerIter: 1, ALUPerIter: 40,
				DepDist: 1, Pattern: PatStrided,
				LinesPerAccess: 3, StridePages: 131, WorkingSetKB: 384,
				StoreWindowLines: 16,
				Seed:             18,
			},
			PaperPInf: 2.84, PaperPDRAM: 1.00,
		},
		{
			// lavaMD: particle interactions against shared neighbour boxes;
			// unusually store-heavy, which loads the *request* network —
			// the benchmark the paper singles out as hurt by the 16 B
			// request flits of the 16+48 crossbar (−37%).
			Spec: Spec{
				Name: "lavaMD", Suite: "Rodinia",
				WarpsPerCore: 48, Iters: 16,
				LoadsPerIter: 6, StoresPerIter: 6, ALUPerIter: 32, HeavyPerIter: 2,
				DepDist: 4, Pattern: PatHotShared,
				WorkingSetKB: 256, SharedKB: 64, SharedFrac: 0.8,
				StoreWindowLines: 32,
				Seed:             19,
			},
			PaperPInf: 2.70, PaperPDRAM: 1.00,
		},
		{
			// Stream Cluster: distance computations with badly coalesced
			// point accesses — each load bursts 8 transactions, saturating
			// the L1 MSHRs and memory pipeline (the paper's standout L1-
			// scaling winner at +240%).
			Spec: Spec{
				Name: "sc", Suite: "Rodinia",
				WarpsPerCore: 6, Iters: 70,
				LoadsPerIter: 2, StoresPerIter: 1, ALUPerIter: 10,
				DepDist: 2, Pattern: PatStrided,
				LinesPerAccess: 9, StridePages: 173, WorkingSetKB: 384,
				SharedKB: 8, SharedFrac: 0.72,
				StoreWindowLines: 32,
				Seed:             20,
			},
			PaperPInf: 2.70, PaperPDRAM: 1.13,
		},
		{
			// Breadth-First Search (Parboil): as bfs but a larger, less
			// L2-friendly graph and lower occupancy.
			Spec: Spec{
				Name: "bfs'", Suite: "Parboil",
				WarpsPerCore: 36, Iters: 24,
				LoadsPerIter: 2, StoresPerIter: 1, ALUPerIter: 30,
				DepDist: 1, Pattern: PatStrided,
				LinesPerAccess: 2, StridePages: 211, WorkingSetKB: 640,
				StoreWindowLines: 16,
				Seed:             21,
			},
			PaperPInf: 2.10, PaperPDRAM: 1.00,
		},
		{
			// Inverted Index: hash-bucket lookups in a shared index.
			Spec: Spec{
				Name: "ii", Suite: "MapReduce",
				WarpsPerCore: 32, Iters: 28,
				LoadsPerIter: 4, StoresPerIter: 1, ALUPerIter: 30,
				DepDist: 3, Pattern: PatHotShared,
				WorkingSetKB: 512, SharedKB: 32, SharedFrac: 0.5,
				StoreWindowLines: 16,
				Seed:             22,
			},
			PaperPInf: 1.98, PaperPDRAM: 1.00,
		},
		{
			// Speckle-reducing anisotropic diffusion, kernel 1: stencil
			// streams with enough arithmetic to hide modest latencies.
			Spec: Spec{
				Name: "sradv1", Suite: "Rodinia",
				WarpsPerCore: 48, Iters: 22,
				LoadsPerIter: 2, StoresPerIter: 2, ALUPerIter: 52,
				DepDist: 8, Pattern: PatStream,
				SharedKB: 192, SharedFrac: 0.3,
				StoreWindowLines: 64,
				Seed:             23,
			},
			PaperPInf: 1.51, PaperPDRAM: 1.19,
		},
		{
			// srad kernel 2: same arithmetic on a reused image that
			// mostly fits the L2.
			Spec: Spec{
				Name: "sradv2", Suite: "Rodinia",
				WarpsPerCore: 48, Iters: 20,
				LoadsPerIter: 2, StoresPerIter: 2, ALUPerIter: 46,
				DepDist: 6, Pattern: PatRandomWS,
				WorkingSetKB: 640,
				Seed:         24,
			},
			PaperPInf: 1.49, PaperPDRAM: 1.08,
		},
		{
			// Needleman-Wunsch: wavefront dependences cap parallelism
			// (12 warps) and every load feeds the next cell.
			Spec: Spec{
				Name: "nw", Suite: "Rodinia",
				WarpsPerCore: 12, Iters: 70,
				LoadsPerIter: 3, StoresPerIter: 2, ALUPerIter: 48,
				DepDist: 0, Pattern: PatStrided,
				LinesPerAccess: 2, StridePages: 61, WorkingSetKB: 256,
				StoreWindowLines: 32,
				Seed:             25,
			},
			PaperPInf: 1.43, PaperPDRAM: 1.09,
		},
		{
			// PDE stencil: the most regular streamer in the suite with
			// plenty of arithmetic — the paper's bandwidth-efficiency
			// champion (65% DRAM efficiency) but a modest P∞.
			Spec: Spec{
				Name: "stencil", Suite: "Parboil",
				WarpsPerCore: 48, Iters: 18,
				LoadsPerIter: 2, StoresPerIter: 2, ALUPerIter: 52, HeavyPerIter: 2,
				DepDist: 10, Pattern: PatStream,
				SharedKB: 256, SharedFrac: 0.45,
				StoreWindowLines: 64,
				Seed:             26,
			},
			PaperPInf: 1.23, PaperPDRAM: 1.20,
		},
		{
			// 2-D wavelet transform: short kernels, little TLP (8 warps),
			// sensitive to even small latency increases (Fig. 3).
			Spec: Spec{
				Name: "dwt2d", Suite: "Rodinia",
				WarpsPerCore: 8, Iters: 70,
				LoadsPerIter: 2, StoresPerIter: 2, ALUPerIter: 36,
				DepDist: 3, Pattern: PatStream,
				SharedKB: 96, SharedFrac: 0.4,
				StoreWindowLines: 32,
				Seed:             27,
			},
			PaperPInf: 1.20, PaperPDRAM: 1.14,
		},
		{
			// Sum of absolute differences: arithmetic-dominated video
			// kernel whose macroblocks stay L1-resident.
			Spec: Spec{
				Name: "sad", Suite: "Parboil",
				WarpsPerCore: 48, Iters: 20,
				LoadsPerIter: 4, StoresPerIter: 1, ALUPerIter: 22, HeavyPerIter: 2,
				DepDist: 8, Pattern: PatTiled,
				WorkingSetKB:     24,
				StoreWindowLines: 32,
				Seed:             28,
			},
			PaperPInf: 1.16, PaperPDRAM: 1.09,
		},
		{
			// Leukocyte tracking: compute-bound with a kernel body larger
			// than the L1I, so the memory system mostly sees instruction
			// misses (P∞ = 1.08 — barely memory-sensitive).
			Spec: Spec{
				Name: "leukocyte", Suite: "Rodinia",
				WarpsPerCore: 24, Iters: 5,
				LoadsPerIter: 3, StoresPerIter: 1, ALUPerIter: 20, HeavyPerIter: 4,
				DepDist: 8, Pattern: PatRandomWS,
				WorkingSetKB: 640, PadCodeInsts: 600,
				Seed: 29,
			},
			PaperPInf: 1.08, PaperPDRAM: 1.00,
		},
	}
})

// Names returns the benchmark names in Table II order.
func Names() []string {
	t := table()
	names := make([]string, len(t))
	for i, b := range t {
		names[i] = b.Spec.Name
	}
	return names
}

// Fig1Names returns the x-axis ordering used by Figs. 1 and 4–9
// (Rodinia alphabetical, then sc, then Parboil, then MapReduce).
func Fig1Names() []string {
	return []string{
		"bfs", "cfd", "dwt2d", "hybridsort", "lavaMD", "leukocyte",
		"nn", "nw", "sradv1", "sradv2", "sc",
		"bfs'", "lbm", "sad", "stencil",
		"ii", "mm", "pvr", "ss",
	}
}

// Workloads builds every benchmark, keyed by name.
func Workloads() map[string]*smcore.Workload {
	out := make(map[string]*smcore.Workload)
	for _, b := range table() {
		out[b.Spec.Name] = b.Spec.MustBuild()
	}
	return out
}

// SpecByName returns the named Table II benchmark as its workload spec —
// the registry behind every place a benchmark name is accepted. Callers
// can use the returned Spec as a starting point for custom workloads:
// copy it, change the axes under study (coalescing, TLP, working set,
// sharing, ...), and run it anywhere an inline spec is accepted.
func SpecByName(name string) (Spec, error) {
	for _, b := range table() {
		if b.Spec.Name == name {
			return b.Spec, nil
		}
	}
	return Spec{}, fmt.Errorf("trace: unknown benchmark %q (known: %v)", name, Names())
}

// ByName builds the named benchmark.
func ByName(name string) (*smcore.Workload, error) {
	spec, err := SpecByName(name)
	if err != nil {
		return nil, err
	}
	return spec.Build()
}
