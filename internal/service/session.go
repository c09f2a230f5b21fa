package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"virtualsync/internal/core"
	"virtualsync/internal/netlist"
)

// ecoKey derives the result-cache key of an ECO submission from the
// resolved base identity plus the canonical edit script. Identical edit
// lists against the same base therefore share cached results, exactly
// like identical plain submissions do.
func ecoKey(baseKey, baseJob string, edits []netlist.Edit) string {
	h := sha256.New()
	fmt.Fprintf(h, "eco|basekey=%s|basejob=%s|\n", baseKey, baseJob)
	h.Write([]byte(netlist.FormatEdits(edits)))
	return hex.EncodeToString(h.Sum(nil))
}

// sessionMeta identifies one stored session: the job that produced it
// and the content key of its base circuit (empty for sessions advanced
// by an ECO job).
type sessionMeta struct {
	JobID string
	Key   string
}

// sessionStore is a bounded LRU of live optimization sessions, indexed
// two ways: by the job that produced them (explicit base_job chains)
// and by base-circuit content key (netlist-addressed ECO). Take removes
// the session from the store, giving the caller exclusive use; Put
// returns it (possibly advanced) under new identifiers.
type sessionStore struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *sessionNode
	byJob map[string]*list.Element
	byKey map[string]string // base content key -> job ID
}

type sessionNode struct {
	meta sessionMeta
	sess *core.Session
}

func newSessionStore(capacity int) *sessionStore {
	if capacity < 1 {
		capacity = 1
	}
	return &sessionStore{
		cap:   capacity,
		order: list.New(),
		byJob: map[string]*list.Element{},
		byKey: map[string]string{},
	}
}

// Put stores sess under meta, evicting the least recently used session
// when full. A session already stored under meta.JobID is replaced.
func (st *sessionStore) Put(meta sessionMeta, sess *core.Session) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.byJob[meta.JobID]; ok {
		st.removeLocked(el)
	}
	el := st.order.PushFront(&sessionNode{meta: meta, sess: sess})
	st.byJob[meta.JobID] = el
	if meta.Key != "" {
		st.byKey[meta.Key] = meta.JobID
	}
	for st.order.Len() > st.cap {
		st.removeLocked(st.order.Back())
	}
}

func (st *sessionStore) removeLocked(el *list.Element) {
	n := el.Value.(*sessionNode)
	st.order.Remove(el)
	delete(st.byJob, n.meta.JobID)
	if st.byKey[n.meta.Key] == n.meta.JobID {
		delete(st.byKey, n.meta.Key)
	}
}

// TakeByJob removes and returns the session produced by job id.
func (st *sessionStore) TakeByJob(id string) (*core.Session, sessionMeta, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.byJob[id]
	if !ok {
		return nil, sessionMeta{}, false
	}
	n := el.Value.(*sessionNode)
	st.removeLocked(el)
	return n.sess, n.meta, true
}

// TakeByKey removes and returns the session whose base circuit has the
// given content key.
func (st *sessionStore) TakeByKey(key string) (*core.Session, sessionMeta, bool) {
	st.mu.Lock()
	id, ok := st.byKey[key]
	st.mu.Unlock()
	if !ok {
		return nil, sessionMeta{}, false
	}
	return st.TakeByJob(id)
}

// Len returns the number of stored sessions.
func (st *sessionStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.order.Len()
}
