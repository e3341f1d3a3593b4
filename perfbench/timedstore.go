package main

import (
	"sync"
	"time"

	"acr/internal/ckptstore"
)

// timedStore wraps the caller-supplied durable flush tier and records the
// latency and payload size of every Put and Get while the tracer is on.
// Only the durable tier is ever wrapped: a caller-supplied hot Config.Store
// would switch off the controller's buffer recycling and patch-in-place
// capture, so the traced run would measure a different program.
type timedStore struct {
	inner ckptstore.Store
	tr    *tracer

	mu       sync.Mutex
	puts     []time.Duration
	gets     []time.Duration
	putBytes int64
}

// storeOps is what the durable tier did while traced.
type storeOps struct {
	puts, gets []time.Duration
	putBytes   int64
}

// wrapTimed returns the wrapper to hand to core and the recorder behind
// it. The returned Store implements exactly the optional capabilities
// (ckptstore.Enumerator, ckptstore.Volatile) that inner implements, so
// callers probing for them see the same tier; Inner() exposes inner to
// unwrap chains such as ckptstore.ResilientStatsOf.
func wrapTimed(inner ckptstore.Store, tr *tracer) (ckptstore.Store, *timedStore) {
	s := &timedStore{inner: inner, tr: tr}
	_, enum := inner.(ckptstore.Enumerator)
	_, vol := inner.(ckptstore.Volatile)
	switch {
	case enum && vol:
		return timedEnumVolatile{s}, s
	case enum:
		return timedEnum{s}, s
	case vol:
		return timedVolatile{s}, s
	}
	return s, s
}

func (s *timedStore) Inner() ckptstore.Store { return s.inner }
func (s *timedStore) Name() string           { return s.inner.Name() }

func (s *timedStore) Put(k ckptstore.Key, ck *ckptstore.Checkpoint) error {
	if !s.tr.on.Load() {
		return s.inner.Put(k, ck)
	}
	t0 := time.Now()
	err := s.inner.Put(k, ck)
	d := time.Since(t0)
	if err == nil {
		s.mu.Lock()
		s.puts = append(s.puts, d)
		s.putBytes += int64(ck.Len())
		s.mu.Unlock()
	}
	return err
}

func (s *timedStore) Get(k ckptstore.Key) (*ckptstore.Checkpoint, error) {
	if !s.tr.on.Load() {
		return s.inner.Get(k)
	}
	t0 := time.Now()
	ck, err := s.inner.Get(k)
	d := time.Since(t0)
	if err == nil {
		s.mu.Lock()
		s.gets = append(s.gets, d)
		s.mu.Unlock()
	}
	return ck, err
}

func (s *timedStore) Compare(a, b ckptstore.Key) (ckptstore.CompareResult, error) {
	return s.inner.Compare(a, b)
}

func (s *timedStore) Evict(olderThan uint64) int   { return s.inner.Evict(olderThan) }
func (s *timedStore) Counters() ckptstore.Counters { return s.inner.Counters() }

// take returns and clears what was recorded so far.
func (s *timedStore) take() storeOps {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops := storeOps{puts: s.puts, gets: s.gets, putBytes: s.putBytes}
	s.puts, s.gets, s.putBytes = nil, nil, 0
	return ops
}

type timedEnum struct{ *timedStore }

func (s timedEnum) Keys() []ckptstore.Key { return s.inner.(ckptstore.Enumerator).Keys() }

type timedVolatile struct{ *timedStore }

func (s timedVolatile) DropNode(replica, node int) int {
	return s.inner.(ckptstore.Volatile).DropNode(replica, node)
}

type timedEnumVolatile struct{ *timedStore }

func (s timedEnumVolatile) Keys() []ckptstore.Key { return s.inner.(ckptstore.Enumerator).Keys() }

func (s timedEnumVolatile) DropNode(replica, node int) int {
	return s.inner.(ckptstore.Volatile).DropNode(replica, node)
}
