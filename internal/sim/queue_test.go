package sim

import (
	"math"
	"testing"
)

// heapEvent, heapLess and heapQueue are the per-event binary min-heap
// both engines used before eventQueue, kept as its ordering oracle:
// every event is sifted on its own, ordered by time, then kind, then a
// FIFO sequence number.
type heapEvent struct {
	time float64
	seq  int64
	kind eventKind
	id   int32
}

func heapLess(a, b *heapEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

type heapQueue []heapEvent

func (q *heapQueue) push(e heapEvent) {
	*q = append(*q, e)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *heapQueue) pop() heapEvent {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	*q = h[:n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && heapLess(&h[l], &h[small]) {
			small = l
		}
		if r < n && heapLess(&h[r], &h[small]) {
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

// queueStats counts what a script exercised.
type queueStats struct {
	pops     int // events taken, all runs
	sameKey  int // pushes onto the key being drained
	allKinds int // instants at which all three kinds were drained
	cuts     int // runs ended by the horizon with events still queued
}

// maxScriptPushes bounds one run's pushes so that every script ends.
const maxScriptPushes = 4096

// runQueueScript drives one push/drain script through eventQueue and the
// heap oracle in lockstep, the way the engines drive their queues, and
// fails at the first pop where the two disagree. A script is a byte
// stream, read as zero once exhausted, and makes two runs on the same
// queues with a reset between them. Each run reads a horizon byte
// (horizon = b/2), a count byte (n = b%16) and n initial push bytes.
// Then for every event taken it reads a response count (b%4) and that
// many push bytes. A push byte b queues at the current time plus
// (b>>2)/2 with kind (b&3)%3; a zero-delay push of a kind below the one
// being drained is raised to it, because the engines never schedule
// into the past. A run ends when both queues are empty or when the next
// key lies beyond the horizon, which leaves events behind for reset.
func runQueueScript(t testing.TB, script []byte) queueStats {
	t.Helper()
	read := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	var st queueStats
	var q eventQueue[int32]
	var h heapQueue
	for run := 0; run < 2; run++ {
		q.reset()
		h = h[:0]
		var id int32
		push := func(at float64, b byte) {
			q.push(at, eventKind(b&3%3), id)
			h.push(heapEvent{time: at, seq: int64(id), kind: eventKind(b & 3 % 3), id: id})
			id++
		}
		horizon := float64(read()) / 2
		for n := read() % 16; n > 0; n-- {
			b := read()
			push(float64(b>>2)/2, b)
		}
		lastTime, kinds := math.Inf(-1), 0
		for {
			key, ok := q.next()
			if !ok {
				if len(h) != 0 {
					t.Fatalf("run %d: bucket queue empty, heap still holds %d events", run, len(h))
				}
				break
			}
			if key.time > horizon {
				st.cuts++
				break
			}
			if key.time != lastTime {
				lastTime, kinds = key.time, 0
			}
			if kinds |= 1 << key.kind; kinds == 7 {
				st.allKinds++
			}
			for {
				e, ok := q.take()
				if !ok {
					break
				}
				if len(h) == 0 {
					t.Fatalf("run %d: bucket queue took event %d at (%g, %d), heap is empty", run, e, key.time, key.kind)
				}
				want := h.pop()
				if want.time != key.time || want.kind != key.kind || want.id != e {
					t.Fatalf("run %d: bucket queue took event %d at (%g, %d), heap popped event %d at (%g, %d)",
						run, e, key.time, key.kind, want.id, want.time, want.kind)
				}
				st.pops++
				for n := read() % 4; n > 0 && id < maxScriptPushes; n-- {
					b := read()
					if b>>2 == 0 && eventKind(b&3%3) < key.kind {
						b = b&^3 | byte(key.kind)
					}
					if b>>2 == 0 && eventKind(b&3%3) == key.kind {
						st.sameKey++
					}
					push(key.time+float64(b>>2)/2, b)
				}
			}
		}
	}
	return st
}

// qp encodes a push byte: dt half-time units after now, of the given kind.
func qp(dt int, kind eventKind) byte { return byte(dt<<2) | byte(kind) }

// queueScripts are the table cases, also the seeds of FuzzEventQueue.
var queueScripts = []struct {
	name   string
	script []byte
	check  func(queueStats) bool
}{
	{
		name: "equal times across all three kinds",
		script: []byte{40, 8,
			qp(4, evSignal), qp(4, evInput), qp(4, evClock), qp(4, evSignal),
			qp(4, evClock), qp(4, evInput), qp(2, evSignal), qp(4, evInput)},
		check: func(s queueStats) bool { return s.allKinds == 1 && s.pops == 8 },
	},
	{
		name: "zero-delay pushes while a bucket drains",
		script: []byte{40, 3, qp(2, evSignal), qp(2, evSignal), qp(2, evClock),
			2, qp(0, evClock), qp(0, evInput), // event 2 (clock): one onto its own key
			0,                  // event 3 (clock)
			1, qp(0, evSignal), // event 4 (input): behind events 0 and 1
			2, qp(0, evClock), qp(0, evSignal), // event 0: the clock push is raised to signal
			1, qp(0, evSignal), // event 1
			0,                  // event 5
			1, qp(1, evSignal), // event 6
			0,                   // event 7
			1, qp(0, evSignal)}, // event 8
		check: func(s queueStats) bool { return s.sameKey == 5 && s.pops == 11 },
	},
	{
		name: "horizon cut then reset and a second run",
		script: []byte{4, 3, qp(1, evInput), qp(6, evSignal), qp(8, evClock),
			1, qp(2, evSignal),
			0,
			// second run, on the queues the cut left non-empty
			40, 4, qp(1, evSignal), qp(1, evClock), qp(6, evSignal), qp(1, evSignal),
			2, qp(0, evSignal), qp(5, evSignal),
			1, qp(0, evSignal)},
		check: func(s queueStats) bool { return s.cuts == 1 && s.pops == 9 },
	},
}

func TestEventQueueMatchesHeap(t *testing.T) {
	for _, tc := range queueScripts {
		t.Run(tc.name, func(t *testing.T) {
			if st := runQueueScript(t, tc.script); !tc.check(st) {
				t.Fatalf("script did not exercise its case: %+v", st)
			}
		})
	}
}

func TestEventQueuePushIntoPastPanics(t *testing.T) {
	var q eventQueue[int32]
	q.reset()
	q.push(2, evSignal, 0)
	if _, ok := q.next(); !ok {
		t.Fatal("queue empty after a push")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a push before the key being drained did not panic")
		}
	}()
	q.push(2, evInput, 1)
}

// FuzzEventQueue holds the bucketed queue to the per-event heap on
// arbitrary push/drain scripts (see runQueueScript).
func FuzzEventQueue(f *testing.F) {
	for _, tc := range queueScripts {
		f.Add(tc.script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		runQueueScript(t, script)
	})
}
