package core

// UpdateStatePlan drives one program event through a compiled plan,
// implementing the instance lifecycle of §4.4.1:
//
//   - «init»: an event whose transition set carries TransInit creates a new
//     instance when no existing instance consumed the event.
//   - clone: an event that specialises a live instance's key (binds new
//     variables) forks a copy; the more general parent instance remains so
//     that other bindings can fork later.
//   - update: an event matching an instance's key and state moves it along.
//   - error: a required event (SymRequired, e.g. reaching the assertion
//     site) that no instance can accept is a violation, as is a strict
//     automaton instance observing an event its state cannot accept.
//   - «cleanup»: an event whose set carries TransCleanup finalises the
//     class; instances that cannot take a cleanup transition have unmet
//     obligations (eventually-style violations) and all instances are
//     expunged afterwards.
//
// The plan, lowered once per (class, symbol) by NewSymbolPlan, names the
// driving event for notification purposes and holds the set of class
// transitions this event can drive, assembled statically by the event
// translator. key carries the variable bindings the event provides.
//
// It is UpdateBatch over one op (batch.go): both entries share one event
// path. Handler notifications are buffered while the event runs and
// dispatched after every lock is released (see supervise.go), so handlers
// may block, or even call back into the store, without stalling monitored
// threads. A store whose handler is the no-op builds no notifications at
// all.
//
// The returned error is non-nil only when the store's failure action is
// FailStop and a violation or overflow occurred; the store's Handler is notified of every outcome
// regardless.
func (s *Store) UpdateStatePlan(p *SymbolPlan, key Key) error {
	ops := [1]BatchOp{{Plan: p, Key: key}}
	return s.UpdateBatch(ops[:])
}

// cand is one pre-event candidate: a live instance compatible with the
// event key. The birth stamp detects a slot that was evicted and reused by
// this same event: the new occupant must not be driven by it.
type cand struct {
	slot  int32
	birth uint64
}

// updateSlots is the per-thread event body: the quarantine gate, then a
// lock-free walk of the class's block for candidates, stopping at the live
// count, then the lifecycle (drive).
func (s *Store) updateSlots(c *classState, p *SymbolPlan, key Key, nb *noteBuf) error {
	if s.quarGate(c, nb) {
		return nil
	}
	var candBuf [DefaultInstanceLimit]cand
	cands := candBuf[:0]
	for i, n := 0, c.live.Load(); i < len(c.insts) && n > 0; i++ {
		if inst := &c.insts[i]; inst.Active {
			n--
			if inst.Key.Compatible(key) {
				cands = append(cands, cand{slot: int32(i), birth: inst.birth})
			}
		}
	}
	return s.drive(c, cands, p, key, nb, 0)
}

// drive applies one event to its candidates — the instances live before it
// whose keys are compatible with its key — by the lifecycle rules that
// model_test.go states and checks, for both store layouts. set is the
// stripe set the caller holds (0 in a PerThread store, which has no
// stripes).
func (s *Store) drive(c *classState, cands []cand, p *SymbolPlan, key Key, nb *noteBuf, set uint64) error {
	// Process in creation order, whatever slots freed and reused ones
	// hold: the outcome then depends on the event history alone, not on
	// the slot layout. Insertion sort: lists are short and mostly sorted
	// already, and sort.Slice would allocate on the monitored path.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].birth < cands[j-1].birth; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}

	var firstErr error
	matched := false
	for _, cd := range cands {
		if c.quarantined.Load() {
			// The class went out of service mid-event.
			break
		}
		inst := &c.insts[cd.slot]
		if !inst.Active || inst.birth != cd.birth {
			// Evicted or killed mid-event (the slot may already hold
			// a new occupant, which this event must not drive).
			continue
		}

		tr := p.find(inst.State)
		if tr == nil {
			switch {
			case p.cleanup:
				// The bound is ending but this instance is stuck
				// in a non-accepting state: an `eventually`
				// obligation was never satisfied.
				s.fail(c, nb, &firstErr, &Violation{Class: c.cls, Kind: VerdictIncomplete, Key: inst.Key, State: inst.State, Symbol: p.Symbol})
			case p.Flags&SymStrict != 0:
				s.fail(c, nb, &firstErr, &Violation{Class: c.cls, Kind: VerdictBadTransition, Key: inst.Key, State: inst.State, Symbol: p.Symbol})
				c.deactivate(cd.slot)
			}
			continue
		}
		// The event is consumed, whether it moves the instance, forks a
		// clone, finds the clone live already or overflows trying.
		matched = true

		if key.Mask&^inst.Key.Mask != 0 {
			// The event binds variables this instance has not seen:
			// clone a more specific instance and leave the parent.
			newKey := union4(inst.Key, key)
			if c.find(newKey) >= 0 {
				continue
			}
			// Copy the parent before claiming: eviction may free and
			// immediately reuse the parent's own slot.
			parent := *inst
			if slot := s.claim(c, nb, &firstErr, set, newKey); slot >= 0 {
				clone := c.activate(slot, tr.To, newKey)
				if nb != nil {
					nb.add(note{kind: noteClone, cls: c.cls, parent: parent, inst: *clone})
				}
				took(c, nb, clone, tr, p.Symbol)
			}
			continue
		}
		inst.State = tr.To
		took(c, nb, inst, tr, p.Symbol)
	}

	if !matched && !c.quarantined.Load() {
		if init := p.initTr(); init != nil {
			initKey := key.project(init.KeyMask)
			if c.find(initKey) < 0 {
				if slot := s.claim(c, nb, &firstErr, set, initKey); slot >= 0 {
					inst := c.activate(slot, init.To, initKey)
					if nb != nil {
						nb.add(note{kind: noteNew, cls: c.cls, inst: *inst})
					}
					took(c, nb, inst, init, p.Symbol)
				}
			}
		} else if p.Flags&SymRequired != 0 && c.live.Load() > 0 {
			// Execution reached the assertion site with bindings for
			// which no instance exists: the events the assertion
			// requires never happened (fig. 9 “Error”). With no live
			// instances at all the automaton was never initialised —
			// the event arrived outside the assertion's bound — and
			// libtesla ignores events until the next «init».
			s.fail(c, nb, &firstErr, &Violation{Class: c.cls, Kind: VerdictNoInstance, Key: key, Symbol: p.Symbol})
		}
	}

	if p.cleanup && !c.quarantined.Load() {
		// A cleanup transition resets the class: all instances are
		// expunged and events are ignored until the next «init».
		c.expunge()
	}
	return firstErr
}

// took reports inst taking edge tr: a transition, and an accept when the
// edge finalises.
func took(c *classState, nb *noteBuf, inst *Instance, tr *Transition, symbol string) {
	if nb == nil {
		return
	}
	nb.add(note{kind: noteTransition, cls: c.cls, inst: *inst, from: tr.From, to: tr.To, symbol: symbol})
	if tr.Cleanup() {
		nb.add(note{kind: noteAccept, cls: c.cls, inst: *inst})
	}
}

// project restricts a key to the slots in mask.
func (k Key) project(mask uint32) Key {
	var out Key
	out.Mask = k.Mask & mask
	for i := 0; i < KeySize; i++ {
		if out.Mask&(1<<uint(i)) != 0 {
			out.Data[i] = k.Data[i]
		}
	}
	return out
}
