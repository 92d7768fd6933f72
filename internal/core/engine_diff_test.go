package core

import "testing"

// Compiled-engine cross-body differentials: the engine contract is link-time
// lowering — one SymbolPlan per (symbol, flags), reused for every event of
// that symbol. These sweeps run the striped store on such cached plans
// (UpdateStatePlan, Plan-carrying UpdateBatch) against the per-thread slot
// array lowering a fresh plan per event (UpdateStatePlan), over the supervision
// schedules (overflow policies, quarantine/re-arm, strict and required
// symbols, resets) at every stripe count, with and without injected
// allocation failures. A plan that went stale or was mutated by execution
// diverges from the fresh one; the degradation paths themselves are held to
// the lifecycle model in model_test.go. This is part of `make compile-gate`.

// TestEngineDifferential sweeps 1250 randomised schedules of cached-plan
// events on 1, 2, 4, 8 and 16 stripes against the slot array.
func TestEngineDifferential(t *testing.T) {
	const schedules = 1250
	for i := 0; i < schedules; i++ {
		shards := []int{1, 2, 4, 8, 16}[i%5]
		runChaosDifferential(t, int64(40000+i), shards, 0, true)
	}
}

// TestEngineDifferentialInjected repeats the sweep with allocation failures
// injected at 1%, 10% and 50%: the cached-plan claim path must degrade —
// drop, evict, quarantine, suppress — exactly like the freshly lowered one.
func TestEngineDifferentialInjected(t *testing.T) {
	for _, rate := range []float64{0.01, 0.10, 0.50} {
		for i := 0; i < 150; i++ {
			shards := []int{1, 2, 4, 8, 16}[i%5]
			runChaosDifferential(t, int64(50000+i), shards, rate, true)
		}
	}
}

// TestEngineBatchDifferential crosses the engine differential with the batch
// plane: Plan-carrying batches (sizes 1, 7 and batchRunMax) on the striped
// store against the same events applied one at a time to the slot array,
// compared at every flush boundary.
func TestEngineBatchDifferential(t *testing.T) {
	for _, size := range []int{1, 7, 64} {
		for i := 0; i < 150; i++ {
			shards := []int{1, 2, 4, 8, 16}[i%5]
			runBatchDifferential(t, int64(60000+i), layout{PerThread, 0}, layout{Global, shards}, size, 0)
		}
	}
}

// TestEngineBatchDifferentialInjected repeats the cross-body batch sweep
// under injected allocation failures.
func TestEngineBatchDifferentialInjected(t *testing.T) {
	for _, rate := range []float64{0.10, 0.50} {
		for i := 0; i < 100; i++ {
			shards := []int{1, 2, 4, 8, 16}[i%5]
			size := []int{1, 7, 64}[i%3]
			runBatchDifferential(t, int64(70000+i), layout{PerThread, 0}, layout{Global, shards}, size, rate)
		}
	}
}
