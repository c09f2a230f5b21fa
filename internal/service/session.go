package service

import (
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
	byJob *lru[string, sessionNode]
	byKey map[string]string // base content key -> job ID
}

type sessionNode struct {
	meta sessionMeta
	sess *core.Session
}

func newSessionStore(capacity int) *sessionStore {
	st := &sessionStore{byKey: map[string]string{}}
	st.byJob = newLRU(capacity, func(id string, n sessionNode) {
		if st.byKey[n.meta.Key] == id {
			delete(st.byKey, n.meta.Key)
		}
	})
	return st
}

// Put stores sess under meta, evicting the least recently used session
// when full. A session already stored under meta.JobID is replaced.
func (st *sessionStore) Put(meta sessionMeta, sess *core.Session) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.byJob.put(meta.JobID, sessionNode{meta, sess})
	if meta.Key != "" {
		st.byKey[meta.Key] = meta.JobID
	}
}

// TakeByJob removes and returns the session produced by job id.
func (st *sessionStore) TakeByJob(id string) (*core.Session, sessionMeta, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	n, ok := st.byJob.take(id)
	return n.sess, n.meta, ok
}

// TakeByKey removes and returns the session whose base circuit has the
// given content key.
func (st *sessionStore) TakeByKey(key string) (*core.Session, sessionMeta, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	// An unknown key reads as job ID "", under which nothing is stored.
	n, ok := st.byJob.take(st.byKey[key])
	return n.sess, n.meta, ok
}

// Len returns the number of stored sessions.
func (st *sessionStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.byJob.len()
}
