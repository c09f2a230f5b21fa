package sim

import (
	"math"
	"math/bits"
)

// qkey is the queue priority shared by both continuous-time engines:
// time, then kind (clock actions before input changes before signal
// changes at the same instant).
type qkey struct {
	time float64
	kind eventKind
}

func (a qkey) less(b qkey) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.kind < b.kind
}

// bucket is the FIFO list of events queued under one key, threaded
// through eventQueue.items.
type bucket struct {
	key        qkey
	head, tail int32 // item indices, -1 when empty
}

// heapEntry is one pending key in the min-heap, inline so that sifting
// compares keys without chasing the bucket table.
type heapEntry struct {
	key qkey
	id  int32 // bucket index
}

type qitem[E any] struct {
	e    E
	next int32
}

// eventQueue is the pending-event set of the scalar event engine and of
// WaveSim. It keeps a small binary min-heap of the distinct (time, kind)
// keys that have events waiting; each key has a FIFO bucket of payloads.
// The engine pops a key once with next and drains its bucket with take.
//
// Events leave in (time, kind, push order) order, the order of a
// per-event heap with a FIFO sequence tie-break, provided no push
// precedes the key being drained: within one key FIFO order is push
// order, and a push made while its own key drains (a zero-delay
// response) lands at the bucket's tail and is taken in the same pass.
// Both engines satisfy that invariant because every delay in a
// validated library is positive; push panics if it is ever broken.
//
// Buckets are linked lists over one item arena with a free list. A key
// finds its bucket through a small open-addressed index (Fibonacci
// hashing of the time's bits, linear probing): in a CPU profile of the
// s13207 WaveSim benchmark, Go map lookups took about 30 % of a run and
// this index takes under 10 %. The index and the bucket table keep
// every key until reset: a drained key is never pushed again, so
// nothing is deleted and no tombstones build up. reset clears both in
// place, so a warm queue schedules and drains without allocating.
type eventQueue[E any] struct {
	heap    []heapEntry
	buckets []bucket
	slots   []int32 // open-addressed key index: bucket index + 1, 0 when empty
	items   []qitem[E]
	free    int32 // head of the released-item list, -1 when empty
	cur     int32 // bucket being drained, -1 before the first next
}

// reset empties the queue, keeping every buffer's backing storage. It
// must be called before first use. Events left behind by a horizon cut
// are dropped with the arena, so nothing is released twice.
func (q *eventQueue[E]) reset() {
	q.heap = q.heap[:0]
	q.buckets = q.buckets[:0]
	q.items = q.items[:0]
	q.free, q.cur = -1, -1
	if q.slots == nil {
		q.slots = make([]int32, 64)
	} else {
		clear(q.slots)
	}
}

// slot returns the index slot of k: the one holding k's bucket, or the
// empty slot where it belongs.
func (q *eventQueue[E]) slot(k qkey) *int32 {
	mask := uint64(len(q.slots) - 1)
	h := (math.Float64bits(k.time) ^ uint64(k.kind)) * 0x9E3779B97F4A7C15
	for i := h >> (64 - bits.Len64(mask)); ; i = (i + 1) & mask {
		if s := q.slots[i]; s == 0 || q.buckets[s-1].key == k {
			return &q.slots[i]
		}
	}
}

// grow doubles the index and reinserts every key since reset.
func (q *eventQueue[E]) grow() {
	q.slots = make([]int32, 2*len(q.slots))
	for i := range q.buckets {
		*q.slot(q.buckets[i].key) = int32(i) + 1
	}
}

// push queues e under (t, kind), behind every event already queued
// under that key.
func (q *eventQueue[E]) push(t float64, kind eventKind, e E) {
	k := qkey{t, kind}
	if q.cur >= 0 && k.less(q.buckets[q.cur].key) {
		panic("sim: event scheduled before the instant being simulated")
	}
	sl := q.slot(k)
	id := *sl - 1
	if id < 0 {
		id = int32(len(q.buckets))
		q.buckets = append(q.buckets, bucket{key: k, head: -1, tail: -1})
		*sl = id + 1
		q.heapPush(heapEntry{k, id})
		if 2*len(q.buckets) > len(q.slots) {
			q.grow()
		}
	}
	it := q.free
	if it >= 0 {
		q.free = q.items[it].next
		q.items[it] = qitem[E]{e: e, next: -1}
	} else {
		it = int32(len(q.items))
		q.items = append(q.items, qitem[E]{e: e, next: -1})
	}
	b := &q.buckets[id]
	if b.tail < 0 {
		b.head = it
	} else {
		q.items[b.tail].next = it
	}
	b.tail = it
}

// next pops the least pending key and makes its bucket the one take
// drains. It returns false when no event is pending.
func (q *eventQueue[E]) next() (qkey, bool) {
	if len(q.heap) == 0 {
		return qkey{}, false
	}
	top := q.heapPop()
	q.cur = top.id
	return top.key, true
}

// take removes and returns the oldest event of the key being drained,
// or false once its bucket is empty.
func (q *eventQueue[E]) take() (E, bool) {
	b := &q.buckets[q.cur]
	it := b.head
	if it < 0 {
		var zero E
		return zero, false
	}
	e := q.items[it].e
	b.head = q.items[it].next
	if b.head < 0 {
		b.tail = -1
	}
	q.items[it].next = q.free
	q.free = it
	return e, true
}

func (q *eventQueue[E]) heapPush(x heapEntry) {
	q.heap = append(q.heap, x)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].key.less(h[parent].key) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue[E]) heapPop() heapEntry {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	q.heap = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h[l].key.less(h[small].key) {
			small = l
		}
		if r < n && h[r].key.less(h[small].key) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}
