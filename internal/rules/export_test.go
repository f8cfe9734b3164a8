package rules

// Generations counts the flows whose rule generation m tracks.
func (m *Manager) Generations() int { return len(m.versions) }
