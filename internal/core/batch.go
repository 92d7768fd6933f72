package core

// Batched ingestion. UpdateStatePlan costs one full lock round-trip per
// event; at millions of events per second the monitor's dispatch plane
// stages matched symbols per thread and applies them here in runs,
// amortising stripe acquisition and registration lookups across a batch.
// Semantics are the single-event path's, exactly: ops apply strictly in
// slice order (no cross-key reordering — the differential harness compares
// against a store fed one op at a time), every op re-plans its lock need
// under the held stripes, and handler notifications buffer across the whole
// batch and dispatch once, after every lock is released.

// batchRunMax bounds how many ops one stripe-lock acquisition may cover, so
// a large batch's union lock set cannot degenerate into holding every stripe
// for the whole batch and starving concurrent threads.
const batchRunMax = 64

// BatchOp is one deferred UpdateStatePlan call: the compiled plan of the
// driving (class, symbol) and the key the event binds.
type BatchOp struct {
	Plan *SymbolPlan
	Key  Key
}

// UpdateBatch applies ops in order, equivalent to calling UpdateStatePlan
// once per op but with locks amortised across runs: the global store
// acquires the union lock set of a lookahead window of same-class ops and
// applies as many as the held stripes cover, re-planning each op under the
// locks. The returned error is the first (in op order) fail-stop violation
// or overflow, matching the error the synchronous path would have returned
// from that op.
func (s *Store) UpdateBatch(ops []BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	nb := s.batchNotes()
	var firstErr error
	if s.nshards > 0 {
		firstErr = s.updateBatchSharded(ops, nb)
	} else {
		for i := range ops {
			op := &ops[i]
			if err := s.updateSlots(s.classFor(op.Plan.Cls), op.Plan, op.Key, nb); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	s.release(nb, true)
	return firstErr
}

// updateBatchSharded is the batch path over the lock-striped store. Each
// outer iteration opens a window: the union of the optimistic lock plans of
// the next run of same-class ops (capped at batchRunMax). The window's
// stripes are acquired once — with lockCovering re-planning the head op,
// as the single-event path does — and ops then apply in order,
// each re-planning under the held locks; the first op whose need outgrows
// the held set ends the run and starts the next window. Order is never
// changed: an op applies exactly when every op before it has. Notifications
// accumulate in nb for the caller to dispatch once every stripe is released.
func (s *Store) updateBatchSharded(ops []BatchOp, nb *noteBuf) error {
	var firstErr error
	i := 0
	for i < len(ops) {
		cls := ops[i].Plan.Cls
		c := s.classFor(cls)
		if s.quarGate(c, nb) {
			i++
			continue
		}

		set, _ := s.eventNeed(c, ops[i].Plan, ops[i].Key)
		j := i + 1
		for ; j < len(ops) && j-i < batchRunMax && ops[j].Plan.Cls == cls; j++ {
			ps, _ := s.eventNeed(c, ops[j].Plan, ops[j].Key)
			set |= ps
		}
		set, _ = s.lockCovering(c, set, ops[i].Plan, ops[i].Key)

		for i < j {
			op := &ops[i]
			if s.quarGate(c, nb) {
				// Quarantined mid-run (or suppressed); the gate counted
				// it, skip the op. Safe under the held stripes: quarMu
				// nests inside stripe locks everywhere.
				i++
				continue
			}
			need, scan := s.eventNeed(c, op.Plan, op.Key)
			if need&^set != 0 {
				// The run's window no longer covers this op (a mid-run
				// activation widened its mask set, or a re-arm left a
				// deferred flush needing every stripe): end the run here
				// and reacquire.
				break
			}
			if err := s.applySharded(c, op.Plan, op.Key, nb, set, scan); err != nil && firstErr == nil {
				firstErr = err
			}
			i++
		}
		c.unlock(set)
	}
	return firstErr
}

// FailStop reports whether the store's failure action is fail-stop —
// whether a violation surfaces as an UpdateStatePlan error. The monitor's batch
// plane uses it to decide whether staged verdict-bearing ops must drain
// through synchronously so their error surfaces at the event call that
// caused it.
func (s *Store) FailStop() bool {
	return s.sv.failure == FailStop
}
