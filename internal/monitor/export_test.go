package monitor

import "tesla/internal/core"

// GlobalLive returns cls's live-instance count in the global store.
func (m *Monitor) GlobalLive(cls *core.Class) int {
	for _, ch := range m.global.HealthReport() {
		if ch.Class == cls.Name {
			return ch.Live
		}
	}
	return 0
}
