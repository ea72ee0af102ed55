package serve

import (
	"sync/atomic"
)

// cacheLine separates producer-written and consumer-written hot fields so
// multi-producer submission does not false-share with the shard's drain
// loop (or with the neighbouring shard's allocation).
const cacheLine = 64

// mpscSlot is one cell of the ingress ring. seq is the Vyukov sequence
// number: seq == pos means the slot is free for the producer that owns
// ticket pos; seq == pos+1 means it holds that ticket's task; after the
// consumer empties it, seq jumps to pos+capacity for the next lap.
type mpscSlot struct {
	seq atomic.Uint64
	t   task
}

// mpsc is a bounded multi-producer single-consumer ring (Vyukov's bounded
// queue specialized to one consumer), replacing the per-shard Go channel
// on the submit hot path: producers contend only on one tail CAS and the
// slot they won, never on a channel lock, and a batch of observations can
// reserve its slots with a single CAS (enqueueBatch).
//
// The consumer parks on a 1-token wake channel when the ring is empty.
// The parked flag and the slot sequence stores are all seq-cst atomics,
// so the standard Dekker argument applies: either the producer observes
// parked and sends the wake token, or the consumer's pre-park recheck
// observes the new task. Either way no task is left behind with the
// consumer asleep.
type mpsc struct {
	slots []mpscSlot
	mask  uint64

	_    [cacheLine]byte
	tail atomic.Uint64 // producers: next ticket
	_    [cacheLine - 8]byte
	head uint64 // consumer-private: next slot to read
	_    [cacheLine - 8]byte
	// headPub is the consumer's published progress. Producers read it to
	// size multi-slot reservations; it may lag head. enqueueBatch clamps
	// tail-headPub at the capacity (the exact single-slot path can push
	// tail past headPub+capacity), so the lag only under-counts free
	// slots, never over.
	headPub atomic.Uint64
	_       [cacheLine - 8]byte
	parked  atomic.Bool
	wake    chan struct{}
}

// newMPSC builds a ring with capacity rounded up to the next power of two
// (the Vyukov index math needs it; QueueDepth is documented accordingly).
func newMPSC(capacity int) *mpsc {
	n := 1
	for n < capacity {
		n <<= 1
	}
	q := &mpsc{slots: make([]mpscSlot, n), mask: uint64(n - 1), wake: make(chan struct{}, 1)}
	for i := range q.slots {
		q.slots[i].seq.Store(uint64(i))
	}
	return q
}

// cap returns the ring capacity.
func (q *mpsc) cap() int { return len(q.slots) }

// enqueue publishes one task. It returns false when the ring is full —
// the exact QueueDepth bound, not an approximation, because fullness is
// detected from the claimed slot's sequence rather than a stale head.
func (q *mpsc) enqueue(t task) bool {
	pos := q.tail.Load()
	for {
		s := &q.slots[pos&q.mask]
		switch d := int64(s.seq.Load()) - int64(pos); {
		case d == 0:
			if q.tail.CompareAndSwap(pos, pos+1) {
				s.t = t
				s.seq.Store(pos + 1)
				return true
			}
			pos = q.tail.Load()
		case d < 0:
			return false // a full lap behind: ring full
		default:
			pos = q.tail.Load() // lost a race; reload
		}
	}
}

// enqueueBatch reserves up to len(values) consecutive slots with one tail
// CAS and publishes one task per value in order (all for station st,
// sharing reply and the submit timestamp t0), returning how many were
// accepted. Tasks are constructed directly in their slots, so a batched
// submit allocates nothing. The reservation is sized from headPub, which
// may lag the consumer — so a near-full ring can under-accept, but a
// reservation never claims a slot the consumer hasn't freed (the single
// consumer frees slots strictly in order, so free space behind headPub is
// contiguous). A batch claims [pos, pos+k) only when pos+k <=
// headPub+capacity; tail itself may run further ahead through the exact
// single-slot path, so a distance pos-headPub of at least the capacity
// (or a headPub read after the consumer passed pos, which wraps the
// unsigned distance) counts as no free space. When the conservative
// estimate says "full", one exact single-slot attempt distinguishes a
// truly full ring from a stale estimate.
func (q *mpsc) enqueueBatch(st *station, values []float64, reply func(Verdict), t0 int64) int {
	want := uint64(len(values))
	for {
		pos := q.tail.Load()
		var free uint64
		if used := pos - q.headPub.Load(); used < uint64(len(q.slots)) {
			free = uint64(len(q.slots)) - used
		}
		k := want
		if k > free {
			k = free
		}
		if k == 0 {
			if q.enqueue(task{st: st, value: values[0], reply: reply, t0: t0}) {
				return 1
			}
			return 0
		}
		if !q.tail.CompareAndSwap(pos, pos+k) {
			continue
		}
		for i := uint64(0); i < k; i++ {
			s := &q.slots[(pos+i)&q.mask]
			s.t = task{st: st, value: values[i], reply: reply, t0: t0}
			s.seq.Store(pos + i + 1)
		}
		return int(k)
	}
}

// dequeue pops the next task (consumer only). ok is false when the head
// slot holds no published task — the ring is empty, or a reservation's
// producer has not finished writing it yet (it will, promptly).
func (q *mpsc) dequeue() (t task, ok bool) {
	s := &q.slots[q.head&q.mask]
	if int64(s.seq.Load())-int64(q.head+1) < 0 {
		return task{}, false
	}
	t = s.t
	s.t = task{} // drop the station/closure refs for the GC
	s.seq.Store(q.head + uint64(len(q.slots)))
	q.head++
	return t, true
}

// publishHead exposes the consumer's progress to enqueueBatch reservations.
// Called once per drain batch (and before parking) rather than per slot,
// so the producers' line is not invalidated on every dequeue.
func (q *mpsc) publishHead() { q.headPub.Store(q.head) }

// empty reports whether the head slot holds a published task.
func (q *mpsc) empty() bool {
	s := &q.slots[q.head&q.mask]
	return int64(s.seq.Load())-int64(q.head+1) < 0
}

// wakeProducerSide is the producer's post-enqueue nudge: if the consumer
// declared itself parked, drop a token in the wake channel (non-blocking;
// one pending token is enough).
func (q *mpsc) wakeProducerSide() {
	if q.parked.Load() {
		select {
		case q.wake <- struct{}{}:
		default:
		}
	}
}

// forceWake unconditionally queues a wake token (Close uses it so a
// parked consumer observes the shard's closed flag).
func (q *mpsc) forceWake() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}
