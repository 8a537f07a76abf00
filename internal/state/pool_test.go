package state

import (
	"runtime"
	"runtime/debug"
	"testing"
)

func newIntPool() *Pool[int] { return &Pool[int]{New: func() *int { return new(int) }} }

// TestPoolGivesBackAcrossGoroutines: an item given back on one goroutine is
// what the next Get takes on any other, the last given back first — a
// sync.Pool's per-P private slot hid it from a Get on another P.
func TestPoolGivesBackAcrossGoroutines(t *testing.T) {
	p := newIntPool()
	a, b := new(int), new(int)
	for i := 0; i < 50; i++ {
		done := make(chan struct{})
		go func() {
			p.Put(a)
			p.Put(b)
			close(done)
		}()
		<-done
		got := make(chan [2]*int)
		go func() { got <- [2]*int{p.Get(), p.Get()} }()
		if g := <-got; g[0] != b || g[1] != a {
			t.Fatalf("round %d: Get took %p, %p; want %p (given back last), %p", i, g[0], g[1], b, a)
		}
	}
	if v := p.Get(); v == a || v == b {
		t.Fatalf("empty pool gave back a taken item")
	}
}

// TestPoolDropsAfterTwoCycles: an item survives one GC cycle and is dropped
// at the second, as from a sync.Pool — whether or not the GC hook has run
// yet. Automatic collection is off for the test, so that its own
// runtime.GC calls are the only cycles.
func TestPoolDropsAfterTwoCycles(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := newIntPool()
	a := new(int)
	p.Put(a)
	runtime.GC()
	if v := p.Get(); v != a {
		t.Fatalf("after one cycle Get = %p, want %p", v, a)
	}
	p.Put(a)
	runtime.GC()
	runtime.GC()
	if v := p.Get(); v == a {
		t.Fatal("after two cycles Get gave back the pooled item")
	}
	p.Put(a)
	runtime.GC()
	runtime.GC()
	p.drop() // the GC hook's work, with Get's check not yet run
	p.mu.Lock()
	n := len(p.items)
	p.mu.Unlock()
	if n != 0 {
		t.Fatalf("GC hook left %d aged items", n)
	}
}
