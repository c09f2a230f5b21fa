package service

import "container/list"

// lru is a bounded map that forgets its least recently used entry when a
// put overfills it. It does no locking: the result cache and the session
// store each guard theirs with their own mutex.
type lru[K comparable, V any] struct {
	cap   int
	order *list.List // front = most recently used; values are *lruEntry[K, V]
	items map[K]*list.Element
	// removed, when non-nil, sees every entry that leaves the map:
	// evicted, replaced by a put under the same key, or taken.
	removed func(K, V)
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// newLRU returns an empty lru holding at most capacity entries (minimum 1).
func newLRU[K comparable, V any](capacity int, removed func(K, V)) *lru[K, V] {
	return &lru[K, V]{cap: max(capacity, 1), order: list.New(), items: map[K]*list.Element{}, removed: removed}
}

// get returns the value under k and marks it most recently used.
func (l *lru[K, V]) get(k K) (v V, ok bool) {
	el, ok := l.items[k]
	if !ok {
		return v, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// put stores v under k as the most recently used entry, replacing any
// value k held, and evicts from the least recently used end while the
// map is over capacity.
func (l *lru[K, V]) put(k K, v V) {
	l.take(k)
	l.items[k] = l.order.PushFront(&lruEntry[K, V]{k, v})
	for l.order.Len() > l.cap {
		l.remove(l.order.Back())
	}
}

// take removes the entry under k and returns its value.
func (l *lru[K, V]) take(k K) (v V, ok bool) {
	el, ok := l.items[k]
	if !ok {
		return v, false
	}
	return l.remove(el), true
}

func (l *lru[K, V]) remove(el *list.Element) V {
	e := l.order.Remove(el).(*lruEntry[K, V])
	delete(l.items, e.key)
	if l.removed != nil {
		l.removed(e.key, e.val)
	}
	return e.val
}

func (l *lru[K, V]) len() int { return l.order.Len() }
