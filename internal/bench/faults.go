package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"

	"tesla/internal/core"
	"tesla/internal/faultinject"
)

// FigFaults measures what the supervision layer (failure policies, overflow
// degradation, quarantine bookkeeping, out-of-lock notification dispatch)
// costs on the monitored fast path. It reuses the OLTP session workload of
// the shard figure — a pool of keyed sessions driven through the sharded
// store — and walks the policy ladder: the
// drop-new default (the seed's behaviour, now routed through the policy
// machinery), evict-oldest, quarantine, and drop-new with the fault
// injector armed at 1% allocation failures. Sessions fit the instance limit,
// so the ladder prices the supervision plumbing itself, not degraded
// operation: the acceptance bar is <3% regression versus the PR 3 shard
// figure's throughput on the same workload.

// figFaultsVariant is one rung of the policy ladder.
type figFaultsVariant struct {
	name string
	opts func() core.StoreOpts
}

func figFaultsVariants() []figFaultsVariant {
	return []figFaultsVariant{
		{"drop-new (default)", func() core.StoreOpts {
			return core.StoreOpts{Context: core.Global, Shards: 8}
		}},
		{"evict-oldest", func() core.StoreOpts {
			return core.StoreOpts{Context: core.Global, Shards: 8, Overflow: core.EvictOldest}
		}},
		{"quarantine", func() core.StoreOpts {
			return core.StoreOpts{Context: core.Global, Shards: 8, Overflow: core.QuarantineClass}
		}},
		{"drop-new + inject 1%", func() core.StoreOpts {
			inj := faultinject.New(1)
			inj.SetRate(faultinject.SiteAlloc, 0.01)
			return core.StoreOpts{Context: core.Global, Shards: 8,
				AllocFail: func(cls *core.Class) bool {
					return inj.Should(faultinject.SiteAlloc, cls.Name)
				}}
		}},
	}
}

// FigFaults prints the supervision-policy throughput ladder. The ladder is
// measured single-goroutine: the acceptance question is what the policy
// machinery costs per event on the hot path, and one goroutine isolates
// exactly that (branch + atomic bookkeeping) from scheduler and lock-convoy
// noise, which on small hosts dwarfs a 3% signal. Multi-goroutine scaling of
// the same store and workload is the shard figure's job. Variants are
// measured in interleaved rounds and the per-rung median is reported.
func FigFaults(w io.Writer, iters int) error {
	total := iters * 8
	if total < 64000 {
		total = 64000
	}
	// One P for one goroutine: extra Ps on small hosts only add runtime
	// churn between the interleaved rounds.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 7

	variants := figFaultsVariants()
	samples := make([][]float64, len(variants))
	for r := 0; r < rounds; r++ {
		for i, v := range variants {
			samples[i] = append(samples[i], shardFigMeasure(v.opts(), 1, total))
		}
	}
	// Median per rung: with the rounds interleaved, slow drift (frequency
	// scaling, co-tenant load) hits all rungs alike and the median shrugs
	// off the outlier rounds a best-of would chase.
	med := make([]float64, len(variants))
	for i := range samples {
		sort.Float64s(samples[i])
		med[i] = samples[i][len(samples[i])/2]
	}

	fmt.Fprintln(w, "Figure faults: supervision-policy cost on the sharded store (OLTP sessions)")
	fmt.Fprintf(w, "  %-22s %14s %10s\n", "policy", "events/s", "vs default")
	for i, v := range variants {
		fmt.Fprintf(w, "  %-22s %14.0f %9.2f%%\n", v.name, med[i], (med[i]/med[0]-1)*100)
	}
	fmt.Fprintln(w, "  target: every rung within 3% of the drop-new default, which itself must")
	fmt.Fprintln(w, "  stay within 3% of the shard figure's sharded throughput — the policy and")
	fmt.Fprintln(w, "  injection seams are branches on data already under the stripe lock")
	fmt.Fprintln(w)
	return nil
}
