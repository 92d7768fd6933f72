package core

// Batched ingestion, and the global store's one event entry:
// UpdateStatePlan there is UpdateBatch over one op. At millions of events
// per second the monitor's dispatch plane stages matched symbols per
// thread and applies them here in runs, amortising stripe acquisition and
// registration lookups across a batch. Semantics are one op at a time's,
// exactly: ops apply strictly in slice order (no cross-key reordering —
// the differential harness compares windows of many ops against windows
// of one), every op is planned under the held stripes, and handler
// notifications buffer across the whole batch and dispatch once, after
// every lock is released.

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
// applies as many as the held stripes cover, planning each op under the
// locks. The returned error is the first (in op order) fail-stop violation
// or overflow, matching the error a one-op call would have returned for
// that op.
func (s *Store) UpdateBatch(ops []BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	nb := s.notes()
	var firstErr error
	if s.nshards > 0 {
		firstErr = s.updateBatchSharded(ops, nb)
	} else {
		for i := range ops {
			op := &ops[i]
			if err := s.updateSlots(op.Plan, op.Key, nb); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	s.release(nb)
	return firstErr
}

// updateBatchSharded is the event path over the lock-striped store. Each
// outer iteration opens a window: the union of the optimistic lock plans of
// the next run of same-class ops (capped at batchRunMax), made before any
// lock is held. The window's stripes are acquired once, with lockCovering
// planning the head op under them; the head applies with that plan, and
// every later op is planned afresh under the held locks. The first op whose
// plan outgrows the held set ends the run and starts the next window. Order
// is never changed: an op applies exactly when every op before it has.
// Notifications accumulate in nb for the caller to dispatch once every
// stripe is released.
func (s *Store) updateBatchSharded(ops []BatchOp, nb *noteBuf) error {
	var firstErr error
	var sp stripePlan
	i := 0
	for i < len(ops) {
		cls := ops[i].Plan.Cls
		c := s.classFor(cls)
		// The gate runs before any stripe lock: the quarantine check stays
		// one atomic load off the fast path.
		if s.quarGate(c, nb) {
			i++
			continue
		}

		set := uint64(0)
		j := i
		for ; j < len(ops) && j-i < batchRunMax && ops[j].Plan.Cls == cls; j++ {
			s.plan(c, ops[j].Plan, ops[j].Key, &sp)
			set |= sp.set
		}
		set = s.lockCovering(c, set, ops[i].Plan, ops[i].Key, &sp)

		for head := i; i < j; i++ {
			op := &ops[i]
			if s.quarGate(c, nb) {
				// Quarantined since the gate above or mid-run; the
				// gate counted it, skip the op. The head op needs
				// this check too: a quarantine raised between its
				// unlocked gate and its plan leaves a deferred flush
				// that escalates the plan to every stripe, and
				// flushing must not let the op through uncounted.
				// Safe under the held stripes: quarMu nests inside
				// stripe locks everywhere.
				continue
			}
			if i > head {
				s.plan(c, op.Plan, op.Key, &sp)
				if sp.set&^set != 0 {
					// The run's window no longer covers this op (a
					// mid-run activation widened its mask set, or a
					// re-arm left a deferred flush needing every
					// stripe): end the run here and reacquire.
					break
				}
			}
			if err := s.applySharded(c, op.Plan, op.Key, nb, set, &sp); err != nil && firstErr == nil {
				firstErr = err
			}
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
