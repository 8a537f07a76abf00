package state

import (
	"runtime"
	"runtime/metrics"
	"sync"
)

// Pool is a process-wide free list of storage kept between runs, the last
// item given back taken first. It replaces sync.Pool, which puts an item in
// the releasing P's private slot, where a Get on another P cannot reach it:
// a run that started on the other P took nothing and allocated all its
// storage anew, so of two ops doing the same work one allocated as if cold,
// at random. Every goroutine reaches this list. Like a sync.Pool's, an item
// nobody took for two GC cycles is dropped, so the GC drains an idle pool.
type Pool[T any] struct {
	New func() *T // makes an item when the pool holds none

	mu     sync.Mutex
	items  []pooled[T] // by the cycle given back, oldest first
	cycles [1]metrics.Sample
	armed  bool // a GC hook drops aged items (watchGC)
}

type pooled[T any] struct {
	v     *T
	cycle uint64 // GC cycles done when it was given back
}

// Get takes the item given back last, else New's.
func (p *Pool[T]) Get() *T {
	p.mu.Lock()
	p.dropAged()
	var v *T
	if n := len(p.items); n > 0 {
		v = p.items[n-1].v
		p.items[n-1] = pooled[T]{}
		p.items = p.items[:n-1]
	}
	p.mu.Unlock()
	if v == nil {
		v = p.New()
	}
	return v
}

// Put gives v back for a later Get.
func (p *Pool[T]) Put(v *T) {
	p.mu.Lock()
	p.dropAged()
	p.items = append(p.items, pooled[T]{v, p.cycle()})
	if !p.armed {
		p.armed = true
		watchGC(p.drop)
	}
	p.mu.Unlock()
}

func (p *Pool[T]) drop() {
	p.mu.Lock()
	p.dropAged()
	p.mu.Unlock()
}

// dropAged drops the items given back two or more GC cycles ago. Get and Put
// check it themselves rather than wait for the GC hook, which runs some time
// after the cycle: a run that follows two collections starts cold, as it did
// on a sync.Pool.
func (p *Pool[T]) dropAged() {
	now, n := p.cycle(), 0
	for n < len(p.items) && p.items[n].cycle+2 <= now {
		n++
	}
	if n > 0 {
		clear(p.items[:n])
		p.items = append(p.items[:0], p.items[n:]...)
	}
}

func (p *Pool[T]) cycle() uint64 {
	if p.cycles[0].Name == "" {
		p.cycles[0].Name = "/gc/cycles/total:gc-cycles"
	}
	metrics.Read(p.cycles[:])
	return p.cycles[0].Value.Uint64()
}

// watchGC calls f after every GC cycle from now on, on the finalizer
// goroutine.
func watchGC(f func()) {
	s := &gcSentinel{f}
	runtime.SetFinalizer(s, func(s *gcSentinel) {
		s.f()
		watchGC(s.f)
	})
}

type gcSentinel struct{ f func() }
