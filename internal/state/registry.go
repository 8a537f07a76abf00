package state

import (
	"fmt"
	"sort"
	"sync"
)

// Entry is one registration in the state structure registry: "Each plan
// 'registers' its state structures in a state structure registry that
// records the plan ID, the expression, and the cardinality of the
// expression" (§3.4.2).
type Entry struct {
	PlanID int
	// ExprKey is the canonical logical-expression key
	// (algebra.CanonKey) this structure materializes.
	ExprKey string
	// Complexity is the number of base relations in the expression; the
	// memory manager pages most-complex-first (§3.4.2).
	Complexity int
	Structure  Structure
}

// Cardinality returns the number of tuples currently stored.
func (e *Entry) Cardinality() int { return e.Structure.Len() }

// Registry indexes the state structures of all plan phases so the
// re-optimizer can cost stitch-up against already-materialized
// subexpressions and the stitch-up join can reuse them.
type Registry struct {
	mu      sync.RWMutex
	entries []*Entry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a structure for (planID, exprKey).
func (r *Registry) Register(planID int, exprKey string, complexity int, s Structure) *Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := &Entry{PlanID: planID, ExprKey: exprKey, Complexity: complexity, Structure: s}
	r.entries = append(r.entries, e)
	return e
}

// Lookup returns all structures materializing exprKey (any plan), in
// registration order.
func (r *Registry) Lookup(exprKey string) []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*Entry
	for _, e := range r.entries {
		if e.ExprKey == exprKey {
			out = append(out, e)
		}
	}
	return out
}

// LookupPlan returns the structure for exprKey registered by planID, if
// any.
func (r *Registry) LookupPlan(planID int, exprKey string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range r.entries {
		if e.PlanID == planID && e.ExprKey == exprKey {
			return e, true
		}
	}
	return nil, false
}

// Plans returns the distinct plan IDs present, sorted.
func (r *Registry) Plans() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.plans()
}

// plans is Plans for a caller that holds the lock: a second RLock behind a
// waiting writer would deadlock.
func (r *Registry) plans() []int {
	seen := map[int]bool{}
	for _, e := range r.entries {
		seen[e.PlanID] = true
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// All returns every entry (registration order).
func (r *Registry) All() []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*Entry(nil), r.entries...)
}

// TotalTuples sums stored cardinalities (memory accounting).
func (r *Registry) TotalTuples() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, e := range r.entries {
		n += e.Structure.Len()
	}
	return n
}

// String summarizes the registry.
func (r *Registry) String() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return fmt.Sprintf("registry{%d entries, %d plans}", len(r.entries), len(r.plans()))
}

// MemoryManager simulates Tukwila's constrained-memory paging policy:
// "state structures will be paged to disk in most-complex-expression to
// least-complex-expression order, based on the principle that larger
// expressions are less likely to be shared between plans than simpler
// expressions" (§3.4.2). The budget is in tuples; hash-table entries page
// by partition, everything else is all-or-nothing (tracked as evicted).
type MemoryManager struct {
	BudgetTuples int
	registry     *Registry
	// evicted records exprKeys currently paged out.
	evicted map[string]bool
	// PageOuts counts eviction events (simulated I/O writes).
	PageOuts int
}

// NewMemoryManager creates a manager over a registry.
func NewMemoryManager(budgetTuples int, reg *Registry) *MemoryManager {
	return &MemoryManager{BudgetTuples: budgetTuples, registry: reg, evicted: map[string]bool{}}
}

// Enforce pages out structures (most complex first) until within budget.
// It returns the keys evicted during this call.
func (m *MemoryManager) Enforce() []string {
	if m.BudgetTuples <= 0 {
		return nil
	}
	total := 0
	entries := m.registry.All()
	for _, e := range entries {
		if !m.evicted[e.ExprKey] {
			total += e.Structure.Len()
		}
	}
	if total <= m.BudgetTuples {
		return nil
	}
	// Most-complex-first, ties broken by larger cardinality.
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].Complexity != entries[j].Complexity {
			return entries[i].Complexity > entries[j].Complexity
		}
		return entries[i].Structure.Len() > entries[j].Structure.Len()
	})
	var out []string
	for _, e := range entries {
		if total <= m.BudgetTuples {
			break
		}
		if m.evicted[e.ExprKey] {
			continue
		}
		m.evicted[e.ExprKey] = true
		m.PageOuts++
		total -= e.Structure.Len()
		out = append(out, e.ExprKey)
	}
	return out
}

// IsEvicted reports whether the expression is currently paged out; reusing
// it costs a simulated disk read.
func (m *MemoryManager) IsEvicted(exprKey string) bool { return m.evicted[exprKey] }

// PageIn brings an expression back (stitch-up reuse).
func (m *MemoryManager) PageIn(exprKey string) { delete(m.evicted, exprKey) }
