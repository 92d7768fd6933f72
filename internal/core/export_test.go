package core

import "fmt"

// Introspection and construction helpers that only this package's tests
// use.

// NewKey builds a key binding the first len(vals) slots.
func NewKey(vals ...Value) Key {
	if len(vals) > KeySize {
		panic(fmt.Sprintf("core: key with %d values exceeds KeySize=%d", len(vals), KeySize))
	}
	var k Key
	for i, v := range vals {
		k = k.Set(i, v)
	}
	return k
}

// Union merges two compatible keys into the most specific key agreeing with
// both. It panics if the keys are incompatible.
func (k Key) Union(o Key) Key {
	if !k.Compatible(o) {
		panic("core: union of incompatible keys")
	}
	return union4(k, o)
}

// Registered reports whether cls has been registered.
func (s *Store) Registered(cls *Class) bool { return s.classOf(cls) != nil }

// LiveCount returns the number of active instances of cls.
func (s *Store) LiveCount(cls *Class) int {
	if c := s.classOf(cls); c != nil {
		return c.liveCount()
	}
	return 0
}

// Reset expunges all instances of every class, as after a cleanup event.
// Quarantined classes are silently returned to service.
func (s *Store) Reset() {
	for _, c := range s.tab.Load().order {
		c.reset()
	}
}

// ResetClass expunges all instances of one class and lifts any quarantine.
func (s *Store) ResetClass(cls *Class) {
	if c := s.classOf(cls); c != nil {
		c.reset()
	}
}

// Quarantined reports whether cls is currently quarantined in this store.
func (s *Store) Quarantined(cls *Class) bool {
	c := s.classOf(cls)
	return c != nil && c.quarantined.Load()
}

// HandlerPanics returns the recovered handler-panic count, store-wide.
func (s *Store) HandlerPanics() uint64 { return s.hpanics.Load() }

// HandlerQuarantined reports whether the handler has been taken out of
// service after repeated panics.
func (s *Store) HandlerQuarantined() bool { return s.hquar.Load() }

// NotesDropped returns the number of notifications dropped because the
// handler was quarantined.
func (s *Store) NotesDropped() uint64 { return s.notesDropped.Load() }

// storeHealth returns cls's entry of the store's HealthReport, or a zero
// Health for an unregistered class.
func storeHealth(s *Store, cls *Class) Health {
	for _, ch := range s.HealthReport() {
		if ch.Class == cls.Name {
			return ch.Health
		}
	}
	return Health{}
}

// reset expunges the class and silently lifts any quarantine.
func (c *classState) reset() {
	c.lock(c.allMask())
	c.expunge()
	c.quarMu.Lock()
	c.quar = quarState{}
	c.quarantined.Store(false)
	c.needsFlush.Store(false)
	c.quarMu.Unlock()
	c.unlock(c.allMask())
}
