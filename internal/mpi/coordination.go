package mpi

// Simulation-side coordination table for collective library setup (window
// creation and similar). Ranks share one Go address space, so handles that
// cannot travel through byte messages (segment references, lock objects)
// are exchanged here; the caller brackets Deposit/Collect with a Barrier
// for correct virtual-time semantics. The simulation is single-threaded, so
// no locking is needed.

// Deposit stores rank's contribution under key.
func (w *World) Deposit(key string, rank int, v any) {
	if w.exchange == nil {
		w.exchange = make(map[string][]any)
	}
	slot, ok := w.exchange[key]
	if !ok {
		slot = make([]any, w.size)
		w.exchange[key] = slot
	}
	slot[rank] = v
}

// Collect returns all contributions under key, indexed by rank.
func (w *World) Collect(key string) []any {
	return w.exchange[key]
}

// callSeq returns this rank's 1-based invocation count of Shrink on the
// given context. Matched calls have equal sequence numbers on every member,
// making them usable as exchange keys without reading shared state.
func (w *World) callSeq(ctx, rank int) int {
	if w.seq == nil {
		w.seq = make(map[int][]int)
	}
	if w.seq[ctx] == nil {
		w.seq[ctx] = make([]int, w.size)
	}
	w.seq[ctx][rank]++
	return w.seq[ctx][rank]
}
