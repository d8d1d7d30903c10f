package store

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"fuzzyknn/internal/fuzzy"
)

// Counting wraps a Reader and counts Get calls. It reproduces the paper's
// headline cost metric: every Get is one "object access" regardless of what
// the underlying reader does. Safe for concurrent use.
type Counting struct {
	Reader
	n atomic.Int64
}

// NewCounting wraps r.
func NewCounting(r Reader) *Counting { return &Counting{Reader: r} }

// Get implements Reader, incrementing the access counter.
func (c *Counting) Get(id uint64) (*fuzzy.Object, error) {
	c.n.Add(1)
	return c.Reader.Get(id)
}

// Count returns the number of Get calls since construction or the last Reset.
func (c *Counting) Count() int64 { return c.n.Load() }

// Uncounted returns the wrapped reader, for internal consumers whose reads
// must not pollute the paper's access accounting (e.g. replication
// snapshot cuts, which scan every live object but are not queries).
func (c *Counting) Uncounted() Reader { return c.Reader }

// Reset zeroes the access counter.
func (c *Counting) Reset() { c.n.Store(0) }

// ApplyBatch implements Mutator by forwarding the whole group to the
// wrapped store (ErrReadOnly when it has no write side). Writes are not
// counted: the paper's cost metric charges object retrievals only.
func (c *Counting) ApplyBatch(inserts []*fuzzy.Object, deletes []uint64) error {
	return forwardBatch(c.Reader, inserts, deletes)
}

// Live implements LivenessChecker by forwarding ((false, false) when the
// wrapped store cannot answer).
func (c *Counting) Live(id uint64) (bool, bool) { return forwardLive(c.Reader, id) }

// forwardBatch routes a batch mutation to the wrapped store's write side,
// or fails with ErrReadOnly.
func forwardBatch(r Reader, inserts []*fuzzy.Object, deletes []uint64) error {
	m, ok := r.(Mutator)
	if !ok {
		return fmt.Errorf("%w: %T has no write side", ErrReadOnly, r)
	}
	return m.ApplyBatch(inserts, deletes)
}

// forwardLive resolves a liveness probe through the wrapped store.
func forwardLive(r Reader, id uint64) (bool, bool) {
	if lc, ok := r.(LivenessChecker); ok {
		return lc.Live(id)
	}
	return false, false
}

// LRU wraps a Reader with a fixed-capacity least-recently-used object cache.
// It is an extension beyond the paper (which always charges a probe) used by
// the cache-ablation benchmarks; place it *under* a Counting wrapper to keep
// the paper's accounting, or *over* one to count only cache misses.
type LRU struct {
	inner    Reader
	capacity int

	mu    sync.Mutex
	ll    *list.List // front = most recent; values are *lruItem
	items map[uint64]*list.Element
	gen   uint64 // bumped by invalidate; stale fetches must not re-cache

	hits, misses atomic.Int64
}

type lruItem struct {
	id  uint64
	obj *fuzzy.Object
}

// NewLRU wraps r with a cache of at most capacity objects (capacity >= 1).
func NewLRU(r Reader, capacity int) *LRU {
	if capacity < 1 {
		panic("store: LRU capacity must be >= 1")
	}
	return &LRU{
		inner:    r,
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[uint64]*list.Element),
	}
}

// Get implements Reader.
func (l *LRU) Get(id uint64) (*fuzzy.Object, error) {
	l.mu.Lock()
	if el, ok := l.items[id]; ok {
		l.ll.MoveToFront(el)
		obj := el.Value.(*lruItem).obj
		l.mu.Unlock()
		l.hits.Add(1)
		return obj, nil
	}
	gen := l.gen
	l.mu.Unlock()
	l.misses.Add(1)
	obj, err := l.inner.Get(id)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	// An invalidate between the unlocked fetch and here means obj may be a
	// superseded version (delete + re-insert of the id); serve it to this
	// caller but do not cache it.
	if _, ok := l.items[id]; !ok && l.gen == gen {
		l.items[id] = l.ll.PushFront(&lruItem{id: id, obj: obj})
		if l.ll.Len() > l.capacity {
			victim := l.ll.Back()
			l.ll.Remove(victim)
			delete(l.items, victim.Value.(*lruItem).id)
		}
	}
	l.mu.Unlock()
	return obj, nil
}

// IDs implements Reader.
func (l *LRU) IDs() []uint64 { return l.inner.IDs() }

// Len implements Reader.
func (l *LRU) Len() int { return l.inner.Len() }

// Dims implements Reader.
func (l *LRU) Dims() int { return l.inner.Dims() }

// Stats returns cache hits and misses since construction.
func (l *LRU) Stats() (hits, misses int64) { return l.hits.Load(), l.misses.Load() }

// invalidate drops id from the cache so the next Get refetches it, and
// bumps the generation so in-flight fetches cannot re-cache a stale copy.
// The generation is deliberately global rather than per-id: it only
// suppresses caching for fetches whose microsecond unlock window overlaps
// a mutation (the next Get of the same id caches normally), which costs
// far less than tracking per-id generations for every mutated id forever.
func (l *LRU) invalidate(id uint64) {
	l.mu.Lock()
	if el, ok := l.items[id]; ok {
		l.ll.Remove(el)
		delete(l.items, id)
	}
	l.gen++
	l.mu.Unlock()
}

// ApplyBatch implements Mutator by forwarding the group, then dropping
// every touched id from the cache so a later re-insert of an id cannot
// serve stale data. A failed group applied nothing, so it invalidates
// nothing.
func (l *LRU) ApplyBatch(inserts []*fuzzy.Object, deletes []uint64) error {
	if err := forwardBatch(l.inner, inserts, deletes); err != nil {
		return err
	}
	for _, o := range inserts {
		l.invalidate(o.ID())
	}
	for _, id := range deletes {
		l.invalidate(id)
	}
	return nil
}

// Live implements LivenessChecker by forwarding ((false, false) when the
// wrapped store cannot answer).
func (l *LRU) Live(id uint64) (bool, bool) { return forwardLive(l.inner, id) }

// asCheckpointer resolves r's checkpoint side, or fails with ErrUnsupported.
func asCheckpointer(r Reader) (Checkpointer, error) {
	if cp, ok := r.(Checkpointer); ok {
		return cp, nil
	}
	return nil, fmt.Errorf("%w: %T cannot checkpoint", ErrUnsupported, r)
}

// Checkpoint implements Checkpointer by forwarding to the wrapped store
// (ErrUnsupported when it has no durable log).
func (c *Counting) Checkpoint() (CheckpointInfo, error) {
	cp, err := asCheckpointer(c.Reader)
	if err != nil {
		return CheckpointInfo{}, err
	}
	return cp.Checkpoint()
}

// CompactLog implements Checkpointer by forwarding.
func (c *Counting) CompactLog() (CheckpointInfo, error) {
	cp, err := asCheckpointer(c.Reader)
	if err != nil {
		return CheckpointInfo{}, err
	}
	return cp.CompactLog()
}

// CheckpointInfo implements Checkpointer by forwarding (false when the
// wrapped store cannot checkpoint).
func (c *Counting) CheckpointInfo() (CheckpointInfo, bool) {
	if cp, ok := c.Reader.(Checkpointer); ok {
		return cp.CheckpointInfo()
	}
	return CheckpointInfo{}, false
}

// Checkpoint implements Checkpointer by forwarding to the wrapped store
// (ErrUnsupported when it has no durable log). The cache needs no
// invalidation: a checkpoint changes where payloads live, not their bytes.
func (l *LRU) Checkpoint() (CheckpointInfo, error) {
	cp, err := asCheckpointer(l.inner)
	if err != nil {
		return CheckpointInfo{}, err
	}
	return cp.Checkpoint()
}

// CompactLog implements Checkpointer by forwarding.
func (l *LRU) CompactLog() (CheckpointInfo, error) {
	cp, err := asCheckpointer(l.inner)
	if err != nil {
		return CheckpointInfo{}, err
	}
	return cp.CompactLog()
}

// CheckpointInfo implements Checkpointer by forwarding (false when the
// wrapped store cannot checkpoint).
func (l *LRU) CheckpointInfo() (CheckpointInfo, bool) {
	if cp, ok := l.inner.(Checkpointer); ok {
		return cp.CheckpointInfo()
	}
	return CheckpointInfo{}, false
}
