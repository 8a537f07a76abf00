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
	// consumed (the R^i partitions of §2.3), in arrival order: the list of
	// the join side the relation's scan fed, where it fed one directly
	// (Tree.LeafLists), else a list the leaf captured.
	BaseParts map[string]*state.List
	// Interm maps canonical expression key -> materialized join results.
	// The root join is not among them: it covers every relation, and the
	// only vector that could reuse it is the uniform one, which is the
	// phase itself (the exclusion list, §3.4.2).
	Interm map[string]*state.List
	// RootRows counts the root join's output instead: intermediate tuples
	// no stitch-up can reuse, reported with the Discarded ones.
	RootRows int64
	// tree is a serial phase's, kept for a standing query to adopt.
	tree *Tree
}

// StitchUp evaluates the cross-phase combination expression
//
//	∪ { R1^c1 ⋈ ... ⋈ Rm^cm : ¬(c1 = ... = cm) }
//
// after all phases complete, reusing phase-materialized intermediate
// results for uniform prefixes and probing lazily built indexes over base
// partitions — the implemented strategy of §3.4.2/§3.4.3. Uniform
// combinations are the exclusion list: they were already produced by the
// phases themselves.
//
// No base row is copied on the way. A base partition is the list the
// phase's join buffered it in (PhaseRecord.BaseParts); the table a fold
// step probes is a second index over that list (state.IndexList); the
// joined prefix of a vector is kept by reference, one base-tuple header per
// relation (prefixRows); and only the last fold step concatenates values,
// into storage every combination reuses when the sink copies what it keeps.
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
	relOff        []int      // relOff[j] is Order[j]'s first column in Schema
	prefixKeys    [][]keyRef // prefix-side key columns per fold step
	relKeyCols    [][]int    // build-side key positions per fold step
	// tables[step*len(phases)+phase] indexes Order[step]'s phase partition
	// on the step's build key.
	tables []*state.HashTable
	// reuse bookkeeping: which intermediates were touched.
	touched map[*state.List]bool
	// keyScratch is the reused probe-key buffer.
	keyScratch types.Tuple

	// levels[i] is the joined prefix of length i+1 of the current vector;
	// wide holds the last fold step's concatenated rows, carved from arena,
	// which rewinds per combination when out copies its input.
	levels  []prefixRows
	wide    []types.Tuple
	arena   exec.ValueArena
	recycle bool
}

// keyRef locates a join column of a by-reference prefix row: column col of
// the row's rel-th relation.
type keyRef struct{ rel, col int }

// NewStitchUp prepares a stitch-up evaluation. out receives tuples in the
// returned Schema's layout.
func NewStitchUp(ctx *exec.Context, q *algebra.Query, phases []*PhaseRecord, out exec.Sink) (*StitchUp, error) {
	s := &StitchUp{
		ctx:     ctx,
		q:       q,
		phases:  phases,
		out:     out,
		touched: map[*state.List]bool{},
		arena:   ctx.Arena(),
	}
	_, s.recycle = out.(exec.InputCopier)
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
	s.relOff = []int{0}
	for _, name := range s.Order[1:] {
		r, _ := q.Relation(name)
		s.relOff = append(s.relOff, sch.Len())
		sch = sch.Concat(r.Schema)
		s.prefixSchemas = append(s.prefixSchemas, sch)
	}
	s.relOff = append(s.relOff, sch.Len())
	s.Schema = sch
	return nil
}

// resolveKeys precomputes, for each fold step i (adding Order[i]), the
// probe key columns of the prefix — resolved in the prefix layout, kept as
// (relation, column) — and the matching build key positions in the
// relation layout.
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
		var pKeys []keyRef
		var rCols []int
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
			rel := 0
			for s.relOff[rel+1] <= pi {
				rel++
			}
			pKeys = append(pKeys, keyRef{rel: rel, col: pi - s.relOff[rel]})
			rCols = append(rCols, ri)
		}
		s.prefixKeys = append(s.prefixKeys, pKeys)
		s.relKeyCols = append(s.relKeyCols, rCols)
	}
	return nil
}

// tableFor lazily builds the index over part — relation Order[step]'s
// phase partition — keyed for the fold step: the stitch-up join deciding
// "on a pairwise basis which state structure should be scanned ... if
// necessary for performance, it will rehash one of the structures
// according to the join key" (§3.4.3). The rows stay where the phase left
// them, the index is built on storage the phases' indexes released, and
// building it is charged as the hash build it stands for.
func (s *StitchUp) tableFor(step, phase int, part *state.List) *state.HashTable {
	at := &s.tables[step*len(s.phases)+phase]
	if *at != nil {
		return *at
	}
	t := state.IndexList(part, s.relKeyCols[step-1], s.ctx.Spare)
	s.ctx.Clock.Charge(int64(part.Len()) * s.ctx.Cost.HashInsert)
	*at = t
	return t
}

// RunContext evaluates every non-uniform combination. It enumerates
// vectors in lexicographic order maintaining per-prefix result caches, so
// shared prefixes across adjacent combinations are computed once; uniform
// prefixes whose joins a phase already materialized are fetched from that
// phase's state structures instead of recomputed. Cancellation is checked
// between combinations; a canceled stitch-up returns the context's error
// with the partial output already emitted left in place downstream.
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
	defer s.release()
	s.tables = make([]*state.HashTable, m*n)
	// levels[i] stays valid while the vector's first i+1 positions are
	// unchanged (and with it the index a later step built over it).
	s.levels = make([]prefixRows, m-1)
	for i := range s.levels {
		s.levels[i] = prefixRows{k: i + 1, adapted: s.ctx.Arena()}
	}
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
			s.levels[0].reset()
			if part := s.phases[c[0]].BaseParts[s.Order[0]]; part != nil {
				part.Scan(func(t types.Tuple) bool {
					s.levels[0].add(s.ctx.Spare)[0] = t
					return true
				})
			}
			first = 1
		}
		// The combination's rows leave in one delivery, each charged one
		// Move as it leaves, on top of the fold's own: the Move a phase's
		// root sink charges its rows, which the stitch-up's does not.
		s.wide = s.wide[:0]
		if s.recycle {
			s.arena.Rewind()
		}
		for i := first; i < m; i++ {
			s.extend(i, c)
		}
		s.ctx.Clock.Charge(int64(len(s.wide)) * s.ctx.Cost.Move)
		s.Emitted += int64(len(s.wide))
		if len(s.wide) > 0 {
			s.out.Push(s.wide, 0)
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

// prefixRows is the cached join of a vector prefix of k relations, kept by
// reference: row r is k base-tuple headers, one per relation in fold order,
// per rows to each of the spare's row chunks, which a later prefix of the
// same length reuses, as it does ix: an index over the rows (row r is id
// r+1), built lazily on the columns the NEXT fold step probes, so the
// stitch-up join can scan the smaller side and probe the larger ("it decides
// on a pairwise basis which state structure should be scanned for tuples and
// which should be probed against", §3.4.3).
type prefixRows struct {
	k, n, per int
	chunks    [][]types.Tuple
	ix        state.Index
	indexed   bool // ix indexes the current rows
	// adapted backs the rows of a reused intermediate, which are headers
	// into tuples adapted to the fold order; it rewinds with the prefix.
	adapted exec.ValueArena
}

func (p *prefixRows) reset() {
	p.n, p.indexed = 0, false
	p.adapted.Rewind()
}

// row returns row r's k headers.
func (p *prefixRows) row(r int) []types.Tuple {
	off := r % p.per * p.k
	return p.chunks[r/p.per][off : off+p.k]
}

// add appends a row and returns its k headers for the caller to fill.
func (p *prefixRows) add(spare *state.Spare) []types.Tuple {
	if p.n == len(p.chunks)*p.per {
		p.chunks = append(p.chunks, spare.RowChunk())
		p.per = len(p.chunks[0]) / p.k
	}
	p.n++
	return p.row(p.n - 1)
}

// release gives the stitch-up's storage to the run's spare as RunContext
// returns: the indexes over the phases' partitions (their lists stay), and
// the prefixes' chunks and indexes.
func (s *StitchUp) release() {
	for _, t := range s.tables {
		if t != nil {
			s.ctx.Spare.Release(t)
		}
	}
	for i := range s.levels {
		s.ctx.Spare.ReleaseRowChunks(s.levels[i].chunks)
		s.ctx.Spare.ReleaseIndex(&s.levels[i].ix)
	}
}

// keyOf extracts row's key columns into key.
func keyOf(key types.Tuple, row []types.Tuple, refs []keyRef) {
	for i, ref := range refs {
		key[i] = row[ref.rel][ref.col]
	}
}

// index builds (once per prefix) the index over the rows' refs columns, one
// HashInsert charged per row. Buckets are those of a table the rows were
// inserted into one by one, and rows are linked back to front so every
// chain ascends: a probe meets its matches in row order.
func (s *StitchUp) index(p *prefixRows, refs []keyRef) {
	if p.indexed {
		return
	}
	p.indexed = true
	p.ix.Reset(s.ctx.Spare, p.n)
	key := s.keyScratchFor(len(refs))
	s.ctx.Clock.Charge(int64(p.n) * s.ctx.Cost.HashInsert)
	for r := p.n - 1; r >= 0; r-- {
		keyOf(key, p.row(r), refs)
		p.ix.Link(int32(r+1), key.HashKey(types.Identity(len(key))))
	}
}

// reuse fills level i from the intermediate phase c[0] materialized for
// the prefix, when c[0..i] is uniform and there is one in a layout that
// adapts — the exclusion-list mechanism of §3.4.2. Each row is adapted to
// the fold order once and sliced per relation.
func (s *StitchUp) reuse(i int, c []int) bool {
	for k := 1; k <= i; k++ {
		if c[k] != c[0] {
			return false
		}
	}
	interm := s.phases[c[0]].Interm[algebra.CanonKey(s.Order[:i+1])]
	if interm == nil {
		return false
	}
	ad, err := types.NewAdapter(interm.Schema(), s.prefixSchemas[i])
	if err != nil {
		return false
	}
	out := &s.levels[i]
	s.ctx.Clock.Charge(int64(interm.Len()) * s.ctx.Cost.Move)
	interm.Scan(func(t types.Tuple) bool {
		row, wide := out.add(s.ctx.Spare), ad.AdaptInto(out.adapted.Alloc(s.relOff[i+1]), t)
		for j := range row {
			row[j] = wide[s.relOff[j]:s.relOff[j+1]:s.relOff[j+1]]
		}
		return true
	})
	s.Reused += int64(interm.Len())
	s.touched[interm] = true
	return true
}

// extend joins the prefix of length i with Order[i]'s phase-c[i]
// partition: into level i by reference, or — on the last step, whose
// vector is never uniform (algebra.Combinations) and so never reused —
// concatenated into s.wide.
func (s *StitchUp) extend(i int, c []int) {
	last := i == len(s.Order)-1
	var out *prefixRows
	if !last {
		out = &s.levels[i]
		out.reset()
		if !s.DisableReuse && s.reuse(i, c) {
			return
		}
	}
	prefix := &s.levels[i-1]
	part := s.phases[c[i]].BaseParts[s.Order[i]]
	if prefix.n == 0 || part == nil || part.Len() == 0 {
		return
	}
	pKeys, rCols := s.prefixKeys[i-1], s.relKeyCols[i-1]
	key := s.keyScratchFor(len(rCols))
	var pt []types.Tuple // the prefix row being matched
	emit := func(rt types.Tuple) bool {
		s.ctx.Clock.Charge(s.ctx.Cost.Move)
		if !last {
			row := out.add(s.ctx.Spare)
			copy(row, pt)
			row[i] = rt
			return true
		}
		wide := s.arena.Alloc(s.relOff[i+1])
		for j, t := range pt {
			copy(wide[s.relOff[j]:], t)
		}
		copy(wide[s.relOff[i]:], rt)
		s.wide = append(s.wide, wide)
		return true
	}
	if prefix.n <= part.Len() {
		// Scan the prefix, probe the partition's index (the reused key
		// buffer + precomputed hash keep the probe allocation-free).
		table := s.tableFor(i, c[i], part)
		s.ctx.Clock.Charge(int64(prefix.n) * s.ctx.Cost.HashProbe)
		for r := 0; r < prefix.n; r++ {
			pt = prefix.row(r)
			keyOf(key, pt, pKeys)
			table.ProbeHashed(key.HashKey(types.Identity(len(key))), key, emit)
		}
		return
	}
	// Scan the (smaller) partition, probe an index over the prefix.
	s.index(prefix, pKeys)
	s.ctx.Clock.Charge(int64(part.Len()) * s.ctx.Cost.HashProbe)
	part.Scan(func(rt types.Tuple) bool {
		for k, col := range rCols {
			key[k] = rt[col]
		}
		hash := key.HashKey(types.Identity(len(key)))
		for id := prefix.ix.First(hash); id != 0; id = prefix.ix.Next(id, hash) {
			pt = prefix.row(int(id - 1))
			if keyEquals(pt, pKeys, key) {
				emit(rt)
			}
		}
		return true
	})
}

// keyEquals reports whether row's refs columns equal key.
func keyEquals(row []types.Tuple, refs []keyRef, key types.Tuple) bool {
	for i, ref := range refs {
		if !types.Equal(row[ref.rel][ref.col], key[i]) {
			return false
		}
	}
	return true
}

// keyScratchFor returns the reused probe-key buffer sized to n.
func (s *StitchUp) keyScratchFor(n int) types.Tuple {
	if cap(s.keyScratch) < n {
		s.keyScratch = make(types.Tuple, n)
	}
	return s.keyScratch[:n]
}
