package trace

import "unsafe"

// The ring slot sizes, for TestRecorderFootprint.
const (
	ProgSlotSize = unsafe.Sizeof(progSlot{})
	LifeSlotSize = unsafe.Sizeof(lifeSlot{})
)
