package sim

// PermuteTies makes the engine break ties among same-instant events by a
// seeded permutation of the scheduling order (seed 0 restores the order
// itself). It exists only in test builds.
func (e *Engine) PermuteTies(seed uint64) { e.tieSeed = seed }
