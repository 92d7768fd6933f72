package core

// UpdateState drives one program event through an automaton class,
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
// symbol names the driving event for notification purposes. key carries the
// variable bindings the event provides. ts is the set of class transitions
// this event can drive, assembled statically by the event translator.
//
// UpdateState lowers a fresh SymbolPlan on every call, which suits tests and
// one-off callers; hot paths lower each (class, symbol) once with
// NewSymbolPlan and call UpdateStatePlan, the store's only event body.
func (s *Store) UpdateState(cls *Class, symbol string, flags SymbolFlags, key Key, ts TransitionSet) error {
	return s.UpdateStatePlan(NewSymbolPlan(cls, symbol, flags, ts), key)
}

// UpdateStatePlan drives one program event through a compiled plan (see
// UpdateState for the lifecycle it implements).
//
// Handler notifications are buffered while the event runs and dispatched
// after every lock is released (see supervise.go), so handlers may block, or
// even call back into the store, without stalling monitored threads.
//
// The returned error is non-nil only when the store's failure action is
// FailStop and a violation or overflow occurred; the store's Handler is notified of every outcome
// regardless.
func (s *Store) UpdateStatePlan(p *SymbolPlan, key Key) error {
	nb := notePool.Get().(*noteBuf)
	var err error
	if s.nshards > 0 {
		err = s.updateSharded(s.shardsOf(p.Cls), p, key, nb)
	} else {
		err = s.updateSlots(s.slotsOf(p.Cls), p, key, nb)
	}
	s.dispatch(nb)
	nb.reset()
	notePool.Put(nb)
	return err
}

// slotsOf resolves cls in a per-thread store. Implicit registration keeps
// one-off uses simple; hot paths should Register up front so the branch
// never runs.
func (s *Store) slotsOf(cls *Class) *classState {
	cs := s.classes[cls]
	if cs == nil {
		s.Register(cls)
		cs = s.classes[cls]
	}
	return cs
}

// slotCand is one pre-event live instance in the per-thread candidate
// snapshot. The birth stamp detects a slot that was evicted and reused by
// this same event: the new occupant must not be driven by it.
type slotCand struct {
	idx   int
	birth uint64
}

// slotQuarGate runs the quarantine fast path for one event over a per-thread
// store: re-arm when due (so the event that brings the class back is itself
// processed normally), otherwise count the suppression and report true so the
// caller skips the event.
func (s *Store) slotQuarGate(cs *classState, nb *noteBuf) bool {
	if !cs.quarantined {
		return false
	}
	if cs.quar.suppressed >= s.sv.rearmEvents {
		cs.quarantined = false
		cs.quar = quarState{}
		nb.add(note{kind: noteQuarantine, cls: cs.cls, on: false})
		return false
	}
	cs.quar.suppressed++
	cs.health.Suppressed++
	return true
}

// slotFail records one violation on the per-thread store.
func (s *Store) slotFail(cs *classState, nb *noteBuf, failStop bool, firstErr *error, v *Violation) {
	cs.health.Violations++
	nb.add(note{kind: noteFail, cls: cs.cls, v: v})
	if failStop && *firstErr == nil {
		*firstErr = v
	}
}

// slotClaim claims one instance slot under the store's overflow policy. It
// consults the fault injector first; on overflow it records one Overflow
// note, then degrades: DropNew drops, EvictOldest sacrifices the oldest
// instance and retries once (the retry consults the injector again; a second
// failure drops silently), QuarantineClass counts the streak and past the
// threshold takes the class out of service. nil means the caller must drop
// the would-be instance.
func (s *Store) slotClaim(cs *classState, nb *noteBuf, failStop bool, firstErr *error, k Key) *Instance {
	cls := cs.cls
	if cs.quarantined {
		// Entered quarantine earlier in this same event.
		return nil
	}
	var slot *Instance
	if s.sv.allocFail == nil || !s.sv.allocFail(cls) {
		slot = cs.alloc()
	}
	if slot == nil {
		cs.health.Overflows++
		nb.add(note{kind: noteOverflow, cls: cls, key: k})
		switch s.sv.overflow {
		case EvictOldest:
			// Prefer the oldest victim bound like the incoming
			// instance: a plain class-wide minimum would sacrifice
			// the unkeyed parent first (it is the oldest by
			// construction), killing the clone source for every
			// later binding in the bound.
			victim, anyVictim := -1, -1
			for i := range cs.insts {
				if !cs.insts[i].Active {
					continue
				}
				if anyVictim < 0 || cs.insts[i].birth < cs.insts[anyVictim].birth {
					anyVictim = i
				}
				if cs.insts[i].Key.Mask == k.Mask && (victim < 0 || cs.insts[i].birth < cs.insts[victim].birth) {
					victim = i
				}
			}
			if victim < 0 {
				victim = anyVictim
			}
			if victim >= 0 {
				ev := cs.insts[victim]
				cs.insts[victim].Active = false
				cs.live--
				cs.health.Evictions++
				nb.add(note{kind: noteEvict, cls: cls, inst: ev})
				if s.sv.allocFail == nil || !s.sv.allocFail(cls) {
					slot = cs.alloc()
				}
			}
		case QuarantineClass:
			cs.quar.streak++
			if cs.quar.streak >= s.sv.quarantineAfter {
				cs.expunge()
				cs.quarantined = true
				cs.health.Quarantines++
				cs.quar = quarState{}
				nb.add(note{kind: noteQuarantine, cls: cls, on: true})
			}
		}
	}
	if slot == nil {
		if failStop && *firstErr == nil {
			*firstErr = ErrOverflow
		}
		return nil
	}
	cs.quar.streak = 0
	return slot
}

// updateSlots is the per-thread event body: the §4.4.1 lifecycle over the
// class's slot array, with the plan's tables answering every per-symbol
// question. The striped body (shard.go) shares no code with it; the
// differential suites pin the two equal, and the lifecycle model in
// model_test.go pins both to the rules.
func (s *Store) updateSlots(cs *classState, p *SymbolPlan, key Key, nb *noteBuf) error {
	cls := cs.cls
	if s.slotQuarGate(cs, nb) {
		return nil
	}

	var firstErr error
	failStop := s.sv.failure == FailStop

	// Snapshot the instances live before this event so that clones created
	// below are not themselves driven by the same event. The walk stops at
	// the live count instead of covering the whole preallocated block.
	var candArr [DefaultInstanceLimit]slotCand
	live := candArr[:0]
	for i, n := 0, cs.live; i < len(cs.insts) && len(live) < n; i++ {
		if cs.insts[i].Active {
			live = append(live, slotCand{idx: i, birth: cs.insts[i].birth})
		}
	}
	// Process in creation order, whichever slots freed and reused ones
	// hold: the outcome then depends on the event history alone, not on
	// the slot layout. Insertion sort, because the slot walk is already in
	// creation order unless a freed slot was reused.
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && live[j].birth < live[j-1].birth; j-- {
			live[j], live[j-1] = live[j-1], live[j]
		}
	}

	matched := false
	for _, c := range live {
		inst := &cs.insts[c.idx]
		if !inst.Active || inst.birth != c.birth {
			// Evicted or expunged mid-event (the slot may already
			// hold a new occupant, which this event must not drive).
			continue
		}
		if !compatible4(inst.Key, key) {
			continue
		}

		tr := p.find(inst.State)
		if tr == nil {
			switch {
			case p.cleanup:
				// The bound is ending but this instance is stuck
				// in a non-accepting state: an `eventually`
				// obligation was never satisfied.
				s.slotFail(cs, nb, failStop, &firstErr, &Violation{Class: cls, Kind: VerdictIncomplete, Key: inst.Key, State: inst.State, Symbol: p.Symbol})
			case p.Flags&SymStrict != 0:
				s.slotFail(cs, nb, failStop, &firstErr, &Violation{Class: cls, Kind: VerdictBadTransition, Key: inst.Key, State: inst.State, Symbol: p.Symbol})
				inst.Active = false
				cs.live--
			}
			continue
		}

		if key.Mask&^inst.Key.Mask != 0 {
			// The event binds variables this instance has not seen
			// (compatibility is already established): clone a more
			// specific instance and leave the parent.
			newKey := union4(inst.Key, key)
			if cs.findExact(newKey) != nil {
				// The specific instance already exists and is
				// processed (or was) on its own terms.
				matched = true
				continue
			}
			// Copy the parent before allocating: eviction may free
			// and immediately reuse the parent's own slot.
			parent := *inst
			clone := s.slotClaim(cs, nb, failStop, &firstErr, newKey)
			if clone == nil {
				continue
			}
			cs.birthClock++
			*clone = Instance{State: tr.To, Key: newKey, Active: true, birth: cs.birthClock}
			cs.commit()
			nb.add(note{kind: noteClone, cls: cls, parent: parent, inst: *clone})
			nb.add(note{kind: noteTransition, cls: cls, inst: *clone, from: tr.From, to: tr.To, symbol: p.Symbol})
			matched = true
			if tr.Cleanup() {
				nb.add(note{kind: noteAccept, cls: cls, inst: *clone})
			}
			continue
		}

		from := inst.State
		inst.State = tr.To
		nb.add(note{kind: noteTransition, cls: cls, inst: *inst, from: from, to: tr.To, symbol: p.Symbol})
		matched = true
		if tr.Cleanup() {
			nb.add(note{kind: noteAccept, cls: cls, inst: *inst})
		}
	}

	if !matched && !cs.quarantined {
		if init := p.initTr(); init != nil {
			initKey := key.project(init.KeyMask)
			if cs.findExact(initKey) == nil {
				if inst := s.slotClaim(cs, nb, failStop, &firstErr, initKey); inst != nil {
					cs.birthClock++
					*inst = Instance{State: init.To, Key: initKey, Active: true, birth: cs.birthClock}
					cs.commit()
					nb.add(note{kind: noteNew, cls: cls, inst: *inst})
					nb.add(note{kind: noteTransition, cls: cls, inst: *inst, from: init.From, to: init.To, symbol: p.Symbol})
					if init.Cleanup() {
						nb.add(note{kind: noteAccept, cls: cls, inst: *inst})
					}
				}
			}
		} else if p.Flags&SymRequired != 0 && cs.live > 0 {
			// Execution reached the assertion site with bindings for
			// which no instance exists: the events the assertion
			// requires never happened (fig. 9 “Error”). With no live
			// instances at all the automaton was never initialised —
			// the event arrived outside the assertion's bound — and
			// libtesla ignores events until the next «init».
			s.slotFail(cs, nb, failStop, &firstErr, &Violation{Class: cls, Kind: VerdictNoInstance, Key: key, Symbol: p.Symbol})
		}
	}

	if p.cleanup && !cs.quarantined {
		// A cleanup transition resets the class: all instances are
		// expunged and events are ignored until the next «init».
		cs.expunge()
	}

	return firstErr
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
