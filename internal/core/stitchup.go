package core

import (
	"context"
	"fmt"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/types"
)

// PhaseRecord is what a completed execution phase leaves behind for
// stitch-up: the base-relation partitions routed to it and the
// intermediate join results it materialized in state structures (§3.4.2).
type PhaseRecord struct {
	ID int
	// Plan is the join tree the phase executed (display/diagnostics).
	Plan algebra.Plan
	// BaseParts maps relation name -> post-filter tuples this phase
	// consumed (the R^i partitions of §2.3).
	BaseParts map[string]*state.List
	// Interm maps canonical expression key -> materialized join results.
	// The root join is not among them: it covers every relation, and the
	// only vector that could reuse it is the uniform one, which is the
	// phase itself (the exclusion list, §3.4.2).
	Interm map[string]*state.List
	// RootRows counts the root join's output instead: intermediate tuples
	// no stitch-up can reuse, reported with the Discarded ones.
	RootRows int64
}

// StitchUp evaluates the cross-phase combination expression
//
//	∪ { R1^c1 ⋈ ... ⋈ Rm^cm : ¬(c1 = ... = cm) }
//
// after all phases complete, reusing phase-materialized intermediate
// results for uniform prefixes and probing lazily built (and, where
// needed, rehashed) hash tables over base partitions — the implemented
// strategy of §3.4.2/§3.4.3. Uniform combinations are the exclusion list:
// they were already produced by the phases themselves.
type StitchUp struct {
	ctx    *exec.Context
	q      *algebra.Query
	phases []*PhaseRecord
	out    exec.Sink

	// Order is the fold order (each relation connects to its prefix).
	Order []string
	// Schema is the layout of emitted tuples: relation schemas
	// concatenated in fold order.
	Schema *types.Schema

	// DisableReuse turns off intermediate-result reuse (ablation: every
	// combination recomputed from base partitions).
	DisableReuse bool

	// Statistics (Table 1 / Table 2 columns).
	Reused    int64 // tuples fetched from phase-materialized intermediates
	Discarded int64 // intermediate tuples never reused
	Combos    int   // combination vectors evaluated
	Emitted   int64 // result tuples produced

	// prefix schemas / join key resolution caches.
	prefixSchemas []*types.Schema
	prefixKeyCols [][]int // probe-side key positions per fold step
	relKeyCols    [][]int // build-side key positions per fold step
	// hash tables over base partitions, keyed (rel, phase).
	tables map[string]*state.HashTable
	// reuse bookkeeping: which intermediates were touched.
	touched map[*state.List]bool
	// keyScratch is the reused probe-key buffer.
	keyScratch types.Tuple
}

// NewStitchUp prepares a stitch-up evaluation. out receives tuples in the
// returned Schema's layout.
func NewStitchUp(ctx *exec.Context, q *algebra.Query, phases []*PhaseRecord, out exec.Sink) (*StitchUp, error) {
	s := &StitchUp{
		ctx:     ctx,
		q:       q,
		phases:  phases,
		out:     out,
		tables:  map[string]*state.HashTable{},
		touched: map[*state.List]bool{},
	}
	if err := s.computeOrder(); err != nil {
		return nil, err
	}
	if err := s.resolveKeys(); err != nil {
		return nil, err
	}
	return s, nil
}

// computeOrder picks a fold order where each relation joins its prefix.
func (s *StitchUp) computeOrder() error {
	q := s.q
	n := len(q.Relations)
	inOrder := map[string]bool{}
	s.Order = append(s.Order, q.Relations[0].Name)
	inOrder[q.Relations[0].Name] = true
	for len(s.Order) < n {
		found := false
		for _, r := range q.Relations {
			if inOrder[r.Name] {
				continue
			}
			for _, j := range q.Joins {
				if (j.LeftRel == r.Name && inOrder[j.RightRel]) || (j.RightRel == r.Name && inOrder[j.LeftRel]) {
					s.Order = append(s.Order, r.Name)
					inOrder[r.Name] = true
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			return fmt.Errorf("core: stitch-up: join graph disconnected at prefix %v", s.Order)
		}
	}
	// Prefix schemas.
	rel0, _ := q.Relation(s.Order[0])
	sch := rel0.Schema
	s.prefixSchemas = []*types.Schema{sch}
	for _, name := range s.Order[1:] {
		r, _ := q.Relation(name)
		sch = sch.Concat(r.Schema)
		s.prefixSchemas = append(s.prefixSchemas, sch)
	}
	s.Schema = sch
	return nil
}

// resolveKeys precomputes, for each fold step i (adding Order[i]), the
// probe key positions in the prefix layout and the matching build key
// positions in the relation layout.
func (s *StitchUp) resolveKeys() error {
	for i := 1; i < len(s.Order); i++ {
		prefixSet := map[string]bool{}
		for _, r := range s.Order[:i] {
			prefixSet[r] = true
		}
		rel := s.Order[i]
		relRef, _ := s.q.Relation(rel)
		preds := s.q.JoinsBetween(prefixSet, map[string]bool{rel: true})
		if len(preds) == 0 {
			return fmt.Errorf("core: stitch-up: no join predicate connecting %s to prefix", rel)
		}
		var pCols, rCols []int
		for _, p := range preds {
			pr, pc, rr, rc := p.LeftRel, p.LeftCol, p.RightRel, p.RightCol
			if rr != rel {
				pr, pc, rr, rc = rr, rc, pr, pc
			}
			pi := s.prefixSchemas[i-1].IndexOf(pr + "." + pc)
			ri := relRef.Schema.IndexOf(rr + "." + rc)
			if pi < 0 || ri < 0 {
				return fmt.Errorf("core: stitch-up: cannot resolve %s", p)
			}
			pCols = append(pCols, pi)
			rCols = append(rCols, ri)
		}
		s.prefixKeyCols = append(s.prefixKeyCols, pCols)
		s.relKeyCols = append(s.relKeyCols, rCols)
	}
	return nil
}

// tableFor lazily builds (or rehashes) the hash table over relation rel's
// phase-p base partition keyed for fold step — the stitch-up join deciding
// "on a pairwise basis which state structure should be scanned ... if
// necessary for performance, it will rehash one of the structures
// according to the join key" (§3.4.3).
func (s *StitchUp) tableFor(step int, phase int) *state.HashTable {
	rel := s.Order[step]
	key := fmt.Sprintf("%s#%d", rel, phase)
	if t, ok := s.tables[key]; ok {
		return t
	}
	relRef, _ := s.q.Relation(rel)
	part := s.phases[phase].BaseParts[rel]
	t := state.NewHashTable(relRef.Schema, s.relKeyCols[step-1])
	if part != nil {
		part.Scan(func(tp types.Tuple) bool {
			t.Insert(tp)
			s.ctx.Clock.Charge(s.ctx.Cost.HashInsert)
			return true
		})
	}
	s.tables[key] = t
	return t
}

// Run evaluates every non-uniform combination. It enumerates vectors in
// lexicographic order maintaining per-prefix result caches, so shared
// prefixes across adjacent combinations are computed once; uniform
// prefixes whose joins a phase already materialized are fetched from that
// phase's state structures instead of recomputed.
func (s *StitchUp) Run() error {
	return s.RunContext(context.Background())
}

// RunContext is Run with cancellation, checked between combinations; a
// canceled stitch-up returns the context's error with the partial output
// already emitted left in place downstream.
func (s *StitchUp) RunContext(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	done := ctx.Done()
	m := len(s.Order)
	n := len(s.phases)
	if m < 2 || n < 2 {
		return nil
	}
	// results[i] holds the joined prefix of length i+1 for the current
	// vector (with a lazily built hash for probe-side swapping); entries
	// stay valid while the vector prefix is unchanged.
	results := make([]*prefixResult, m)
	prev := make([]int, m)
	for i := range prev {
		prev[i] = -1
	}
	var err error
	algebra.Combinations(m, n, func(c []int) bool {
		if done != nil {
			select {
			case <-done:
				err = ctx.Err()
				return false
			default:
			}
		}
		s.Combos++
		// First differing position invalidates caches from there on.
		first := 0
		for first < m && prev[first] == c[first] {
			first++
		}
		copy(prev, c)
		if first == 0 {
			results[0] = &prefixResult{rows: s.basePartition(0, c[0])}
			first = 1
		}
		for i := first; i < m; i++ {
			results[i], err = s.extend(results[i-1], i, c)
			if err != nil {
				return false
			}
		}
		// Batched emit: the combination's result vector is delivered
		// downstream in one call (per-tuple Move charges are preserved, and
		// delivery order equals the per-tuple emit order).
		rows := results[m-1].rows
		for range rows {
			s.ctx.Clock.Charge(s.ctx.Cost.Move)
		}
		s.Emitted += int64(len(rows))
		if len(rows) > 0 {
			s.out.PushBatch(rows)
		}
		return true
	})
	if err != nil {
		return err
	}
	// Discarded = intermediate tuples never reused.
	for _, ph := range s.phases {
		s.Discarded += ph.RootRows
		//adp:unordered-ok an integer sum over the lists
		for _, l := range ph.Interm {
			if !s.touched[l] {
				s.Discarded += int64(l.Len())
			}
		}
	}
	return nil
}

// basePartition returns relation Order[0]'s phase-p partition rows.
func (s *StitchUp) basePartition(step, phase int) []types.Tuple {
	part := s.phases[phase].BaseParts[s.Order[step]]
	if part == nil {
		return nil
	}
	return part.Rows()
}

// prefixResult is the cached join of a vector prefix: its rows plus a
// lazily built hash table keyed on the columns the NEXT fold step probes,
// so the stitch-up join can scan the smaller side and probe the larger
// ("it decides on a pairwise basis which state structure should be
// scanned for tuples and which should be probed against", §3.4.3).
type prefixResult struct {
	rows []types.Tuple
	hash *state.HashTable
}

// hashFor builds (once) the prefix hash keyed on the step's prefix-side
// join columns.
func (s *StitchUp) hashFor(p *prefixResult, step int) *state.HashTable {
	if p.hash != nil {
		return p.hash
	}
	h := state.NewHashTable(s.prefixSchemas[step-1], s.prefixKeyCols[step-1])
	for _, t := range p.rows {
		s.ctx.Clock.Charge(s.ctx.Cost.HashInsert)
		h.Insert(t)
	}
	p.hash = h
	return h
}

// extend joins the prefix rows with Order[i]'s phase-c[i] partition. When
// the prefix c[0..i] is uniform and that phase materialized the prefix
// subexpression, the materialized result is adapted and reused instead.
func (s *StitchUp) extend(prefix *prefixResult, i int, c []int) (*prefixResult, error) {
	// Reuse check: uniform c[0..i] with a materialized intermediate —
	// the exclusion-list mechanism of §3.4.2.
	if !s.DisableReuse {
		uniform := true
		for k := 1; k <= i; k++ {
			if c[k] != c[0] {
				uniform = false
				break
			}
		}
		if uniform {
			key := algebra.CanonKey(s.Order[:i+1])
			if interm, ok := s.phases[c[0]].Interm[key]; ok && interm != nil {
				ad, err := types.NewAdapter(interm.Schema(), s.prefixSchemas[i])
				if err == nil {
					rows := make([]types.Tuple, 0, interm.Len())
					interm.Scan(func(t types.Tuple) bool {
						s.ctx.Clock.Charge(s.ctx.Cost.Move)
						rows = append(rows, ad.Adapt(t))
						return true
					})
					s.Reused += int64(len(rows))
					s.touched[interm] = true
					return &prefixResult{rows: rows}, nil
				}
			}
		}
	}
	if prefix == nil || len(prefix.rows) == 0 {
		return &prefixResult{}, nil
	}
	rel := s.Order[i]
	part := s.phases[c[i]].BaseParts[rel]
	partLen := 0
	if part != nil {
		partLen = part.Len()
	}
	if partLen == 0 {
		return &prefixResult{}, nil
	}
	pCols := s.prefixKeyCols[i-1]
	rCols := s.relKeyCols[i-1]
	var out []types.Tuple
	if len(prefix.rows) <= partLen {
		// Scan the prefix, probe the partition's hash table (the reused
		// key buffer + precomputed hash keep the probe allocation-free).
		table := s.tableFor(i, c[i])
		key := s.keyScratchFor(len(pCols))
		for _, pt := range prefix.rows {
			for k, col := range pCols {
				key[k] = pt[col]
			}
			s.ctx.Clock.Charge(s.ctx.Cost.HashProbe)
			table.ProbeHashed(key.HashKey(types.Identity(len(key))), key, func(rt types.Tuple) bool {
				s.ctx.Clock.Charge(s.ctx.Cost.Move)
				out = append(out, pt.Concat(rt))
				return true
			})
		}
	} else {
		// Scan the (smaller) partition, probe a hash over the prefix.
		ph := s.hashFor(prefix, i)
		key := s.keyScratchFor(len(rCols))
		part.Scan(func(rt types.Tuple) bool {
			for k, col := range rCols {
				key[k] = rt[col]
			}
			s.ctx.Clock.Charge(s.ctx.Cost.HashProbe)
			ph.ProbeHashed(key.HashKey(types.Identity(len(key))), key, func(pt types.Tuple) bool {
				s.ctx.Clock.Charge(s.ctx.Cost.Move)
				out = append(out, pt.Concat(rt))
				return true
			})
			return true
		})
	}
	return &prefixResult{rows: out}, nil
}

// keyScratchFor returns the reused probe-key buffer sized to n.
func (s *StitchUp) keyScratchFor(n int) types.Tuple {
	if cap(s.keyScratch) < n {
		s.keyScratch = make(types.Tuple, n)
	}
	return s.keyScratch[:n]
}
