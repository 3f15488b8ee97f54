package sim

import (
	"fmt"
	"time"
)

// Virtual-time synchronization primitives. All of them are deterministic:
// waiters are queued and released in FIFO order.

// Future is a one-shot completion event carrying an optional value. The
// zero value is an incomplete future, so one can be embedded by value in the
// object whose completion it reports.
type Future struct {
	done  bool
	value any
	// waiter is the first process to wait, held inline so that the common
	// one-waiter future allocates no list; later arrivals queue in waiters.
	waiter    *Proc
	waiters   []*Proc
	callbacks []func(any)
}

// NewFuture returns an incomplete future.
func NewFuture() *Future { return &Future{} }

// Done reports whether the future has completed.
func (f *Future) Done() bool { return f.done }

// Value returns the value passed to Complete, or nil if not yet complete.
func (f *Future) Value() any { return f.value }

// Complete marks the future done and wakes all waiters. Completing twice
// panics.
func (f *Future) Complete(v any) {
	if f.done {
		panic("sim: future completed twice")
	}
	f.done = true
	f.value = v
	if f.waiter != nil {
		f.waiter.Wake()
		f.waiter = nil
	}
	for i, p := range f.waiters {
		p.Wake()
		f.waiters[i] = nil
	}
	f.waiters = f.waiters[:0] // storage kept for a future that is re-armed
	for _, fn := range f.callbacks {
		fn(v)
	}
	f.callbacks = nil
}

// Rearm makes a completed future incomplete again, keeping the storage of
// its waiter list: an object whose completion recurs — a node's store
// barrier — embeds one future for good instead of allocating one per round.
// The value is gone with it, so whoever re-arms must know that no process
// the completion woke still reads it: the last waiter, once it has the
// value, or the completer itself when the completion carries none.
func (f *Future) Rearm() {
	if !f.done {
		panic("sim: re-arming a future that has not completed")
	}
	f.done, f.value = false, nil
}

// OnComplete registers fn to run synchronously (in registration order) when
// the future completes; if it already has, fn runs immediately. It is the
// event-driven counterpart of Await for code with no process context —
// shard-resident actors of the sharded engine cannot park.
func (f *Future) OnComplete(fn func(any)) {
	if f.done {
		fn(f.value)
		return
	}
	f.callbacks = append(f.callbacks, fn)
}

// addWaiter queues p behind the processes already waiting. The inline slot
// is used only while the list is empty, so waiters wake in arrival order
// even after a timeout vacated the slot.
func (f *Future) addWaiter(p *Proc) {
	if f.waiter == nil && len(f.waiters) == 0 {
		f.waiter = p
		return
	}
	f.waiters = append(f.waiters, p)
}

// dropWaiter removes p from the waiters and reports whether it was still
// one: Complete clears them before waking, so false means the future fired.
func (f *Future) dropWaiter(p *Proc) bool {
	if f.waiter == p {
		f.waiter = nil
		return true
	}
	for i, w := range f.waiters {
		if w == p {
			f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// Await blocks p until the future completes and returns its value.
func (p *Proc) Await(f *Future) any {
	if f.done {
		return f.value
	}
	f.addWaiter(p)
	p.park()
	return f.value
}

// AwaitTimeout blocks p until the future completes or d elapses. It
// returns (value, true) on completion and (nil, false) on timeout; in the
// latter case p is no longer registered as a waiter. Like RecvTimeout it
// allocates nothing.
func (p *Proc) AwaitTimeout(f *Future, d time.Duration) (any, bool) {
	if f.done {
		return f.value, true
	}
	f.addWaiter(p)
	p.handoff = f
	t := p.host.AfterCall(d, awaitExpired, p)
	p.park()
	if p.takeHandoff() == waitExpired {
		return nil, false
	}
	t.Cancel()
	return f.value, true
}

// waitExpired is what the expiry event of a timed wait leaves in the
// waiter's hand-off slot: a pointer of an unexported type, so no value sent
// from outside this package can be taken for it.
var waitExpired any = new(struct{ byte })

// awaitExpired is the watchdog event of AwaitTimeout: a top-level function
// scheduled through AfterCall, so arming it makes no closure. Complete wakes
// its waiters, so a process still parked has not been served.
func awaitExpired(arg any) {
	p := arg.(*Proc)
	if p.parked && p.handoff.(*Future).dropWaiter(p) {
		p.handoff = waitExpired
		p.Wake()
	}
}

// AwaitAll blocks p until every future in fs has completed.
func (p *Proc) AwaitAll(fs ...*Future) {
	for _, f := range fs {
		p.Await(f)
	}
}

// TakeFree pops a record off a free list. A free list is a plain LIFO slice
// its owner appends to: the processes and callbacks of one host run one at a
// time, so it needs no lock. An empty list is refilled with a block of zero
// records as large as the list's capacity (at least one). The capacity grows
// to the most records that came back at once, and an owner that knows how
// many it will have in use at once sizes the list for them before the first
// take, so they cost one allocation.
func TakeFree[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		block := make([]T, max(1, cap(*free)))
		for i := range block[1:] {
			*free = append(*free, &block[i+1])
		}
		return &block[0]
	}
	r := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return r
}

// FIFO is a first-in-first-out queue in a circular buffer. Pop moves a head
// index instead of re-slicing, so a queue that fills and drains at a steady
// rate keeps one backing array for good; the buffer only ever grows to the
// largest number of items that were queued at once.
type FIFO[T any] struct {
	buf     []T
	head, n int
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return q.n }

// at returns the i-th oldest item's slot.
func (q *FIFO[T]) at(i int) *T {
	if i += q.head; i >= len(q.buf) {
		i -= len(q.buf)
	}
	return &q.buf[i]
}

// Push queues v behind the items already there.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(4, 2*q.n))
		for i := 0; i < q.n; i++ {
			grown[i] = *q.at(i)
		}
		q.buf, q.head = grown, 0
	}
	q.n++
	*q.at(q.n - 1) = v
}

// Pop removes and returns the oldest item; the queue must not be empty.
func (q *FIFO[T]) Pop() T {
	slot := q.at(0)
	v := *slot
	var zero T
	*slot = zero
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return v
}

// removeAt deletes the i-th oldest item, keeping the order of the rest.
func (q *FIFO[T]) removeAt(i int) {
	for ; i < q.n-1; i++ {
		*q.at(i) = *q.at(i + 1)
	}
	var zero T
	*q.at(q.n - 1) = zero
	q.n--
}

// Chan is a virtual-time channel with an optional buffer. An unbuffered
// channel (capacity 0) rendezvous: Send blocks until a receiver takes the
// value.
type Chan struct {
	cap     int
	buf     FIFO[any]
	senders FIFO[chanSender] // blocked senders with their values
	recvers FIFO[*Proc]      // blocked receivers; the value is handed over in Proc.handoff
}

type chanSender struct {
	p   *Proc
	val any
}

// NewChan returns a channel with the given buffer capacity.
func NewChan(capacity int) *Chan {
	if capacity < 0 {
		panic("sim: negative channel capacity")
	}
	return &Chan{cap: capacity}
}

// Len returns the number of buffered values.
func (c *Chan) Len() int { return c.buf.Len() }

// handOff gives v to the oldest blocked receiver, if there is one.
func (c *Chan) handOff(v any) bool {
	if c.recvers.Len() == 0 {
		return false
	}
	r := c.recvers.Pop()
	r.handoff = v
	r.Wake()
	return true
}

// Send delivers v on the channel, blocking in virtual time if no buffer
// space and no waiting receiver exists.
func (p *Proc) Send(c *Chan, v any) {
	if c.handOff(v) {
		return
	}
	if c.buf.Len() < c.cap {
		c.buf.Push(v)
		return
	}
	c.senders.Push(chanSender{p: p, val: v})
	p.park()
}

// Recv takes the next value from the channel, blocking in virtual time
// until one is available.
func (p *Proc) Recv(c *Chan) any {
	if v, ok := p.TryRecv(c); ok {
		return v
	}
	c.recvers.Push(p)
	p.park()
	return p.takeHandoff()
}

// takeHandoff returns the value a channel handed to p while it was blocked
// as a receiver. A blocked process waits on one channel, so the slot lives
// in the Proc and a blocking Recv allocates nothing.
func (p *Proc) takeHandoff() any {
	v := p.handoff
	p.handoff = nil
	return v
}

// Post delivers v on the channel without a sending process. It never
// blocks: if no receiver is waiting, the value is buffered even beyond the
// channel's nominal capacity. Post is intended for event callbacks (timer
// and delivery events), which have no process context.
func Post(c *Chan, v any) {
	if !c.handOff(v) {
		c.buf.Push(v)
	}
}

// TryRecv takes a value if one is immediately available without blocking.
func (p *Proc) TryRecv(c *Chan) (any, bool) {
	if c.buf.Len() > 0 {
		v := c.buf.Pop()
		// A blocked sender can now occupy the freed buffer slot.
		if c.senders.Len() > 0 {
			w := c.senders.Pop()
			c.buf.Push(w.val)
			w.p.Wake()
		}
		return v, true
	}
	if c.senders.Len() > 0 {
		w := c.senders.Pop()
		w.p.Wake()
		return w.val, true
	}
	return nil, false
}

// RecvTimeout takes the next value from the channel, giving up after d of
// virtual time. It returns (value, true) on success and (nil, false) on
// timeout; in the latter case p is no longer queued as a receiver.
//
// A process blocks in one wait at a time, so the watchdog's state lives in
// the Proc: the hand-off slot holds the channel until a value replaces it,
// and the expiry is a top-level function scheduled through AfterCall — a
// wait allocates nothing.
func (p *Proc) RecvTimeout(c *Chan, d time.Duration) (any, bool) {
	if v, ok := p.TryRecv(c); ok {
		return v, true
	}
	c.recvers.Push(p)
	p.handoff = c
	t := p.host.AfterCall(d, recvExpired, p)
	p.park()
	v := p.takeHandoff()
	if v == waitExpired {
		return nil, false
	}
	t.Cancel()
	return v, true
}

// recvExpired is the watchdog event of RecvTimeout. Send and Post take the
// receiver off the queue and wake it, so a process still parked is still
// queued on the channel in its hand-off slot and was handed nothing.
func recvExpired(arg any) {
	p := arg.(*Proc)
	if !p.parked {
		return
	}
	c := p.handoff.(*Chan)
	for i := 0; i < c.recvers.Len(); i++ {
		if *c.recvers.at(i) == p {
			c.recvers.removeAt(i)
			p.handoff = waitExpired
			p.Wake()
			return
		}
	}
}

// waitList is a FIFO of parked processes linked through their hand-off
// slots: a process blocked in Lock or Acquire waits on nothing else, so the
// slot holds the next waiter and a list costs its owner one pointer. The
// links form a ring and the list points at its tail, whose slot holds the
// head, so push and pop both take constant time however deep the queue.
type waitList struct {
	tail *Proc
}

// push queues p behind the processes already waiting.
func (l *waitList) push(p *Proc) {
	if t := l.tail; t == nil {
		p.handoff = p
	} else {
		p.handoff, t.handoff = t.handoff, p
	}
	l.tail = p
}

// pop unlinks and returns the oldest waiter, its hand-off slot cleared, or
// nil if none waits.
func (l *waitList) pop() *Proc {
	t := l.tail
	if t == nil {
		return nil
	}
	h := t.handoff.(*Proc)
	if h == t {
		l.tail = nil
	} else {
		t.handoff = h.handoff
	}
	h.handoff = nil
	return h
}

// Mutex is a virtual-time mutual-exclusion lock with FIFO waiters.
type Mutex struct {
	held    bool
	waiters waitList
}

// Lock acquires m, blocking p in virtual time if it is held.
func (p *Proc) Lock(m *Mutex) {
	if !m.held {
		m.held = true
		return
	}
	m.waiters.push(p)
	p.park()
	// Ownership is transferred directly by Unlock; held stays true.
}

// TryLock acquires m if it is free, without blocking.
func (m *Mutex) TryLock() bool {
	if m.held {
		return false
	}
	m.held = true
	return true
}

// Unlock releases m, handing it to the oldest waiter if any.
func (p *Proc) Unlock(m *Mutex) {
	if !m.held {
		panic("sim: unlock of unlocked mutex")
	}
	if next := m.waiters.pop(); next != nil {
		next.Wake()
		return
	}
	m.held = false
}

// MaxCredits is the most slots a Credits can hold: its free ring is an
// array inside it, so a pool embeds by value with no storage of its own.
const MaxCredits = 8

// Credits is the flow control of a pool of numbered buffer slots: Acquire
// hands out free slot indices in the order they were released and blocks in
// virtual time while none is free; blocked processes are served in FIFO
// order. It behaves like a Chan pre-loaded with one token per slot, but the
// tokens are bytes in a circular FIFO held inline, so a Credits embeds by
// value and neither steady traffic nor contention allocates.
type Credits struct {
	waiters       waitList
	ring          [MaxCredits]uint8 // free slots: n of them, starting at head, wrapping at size
	head, n, size uint8
}

// Init makes every slot 0..n-1 free, in ascending order. n must not exceed
// MaxCredits.
func (c *Credits) Init(n int) {
	if n < 0 || n > MaxCredits {
		panic(fmt.Sprintf("sim: %d credits, at most %d fit", n, MaxCredits))
	}
	for i := range n {
		c.ring[i] = uint8(i)
	}
	c.head, c.n, c.size = 0, uint8(n), uint8(n)
}

// Acquire takes the oldest free slot, blocking p until one is released.
func (p *Proc) Acquire(c *Credits) int {
	if c.n > 0 {
		slot := c.ring[c.head]
		c.head = (c.head + 1) % c.size
		c.n--
		return int(slot)
	}
	c.waiters.push(p)
	p.park()
	// Release left the slot in the hand-off slot.
	return p.takeHandoff().(int)
}

// Release frees slot, handing it straight to the oldest blocked process if
// there is one. Like Post it needs no process context and never blocks.
func (c *Credits) Release(slot int) {
	if w := c.waiters.pop(); w != nil {
		w.handoff = slot // below MaxCredits: boxing it allocates nothing
		w.Wake()
		return
	}
	if c.n == c.size {
		panic("sim: more credits released than slots exist")
	}
	c.ring[(c.head+c.n)%c.size] = uint8(slot)
	c.n++
}
