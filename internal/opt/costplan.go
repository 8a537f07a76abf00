package opt

import (
	"math"

	"github.com/tukwila/adp/internal/algebra"
)

// CostPlan estimates the cost and output cardinality of a GIVEN plan tree
// under the same model Optimize uses (0, 0 for a query NewPlanner
// rejects).
func CostPlan(in Inputs, root algebra.Plan) (cost, card float64) {
	p, err := NewPlanner(in.Query)
	if err != nil {
		return 0, 0
	}
	return p.CostPlan(in, root)
}

// CostPlan estimates root's cost and output cardinality under in's
// statistics. The corrective monitor uses it to price the currently
// executing plan over the remaining source data and compare it against the
// re-optimizer's best alternative (§4.1: interrupt only when a
// substantially better plan exists).
func (p *Planner) CostPlan(in Inputs, root algebra.Plan) (cost, card float64) {
	p.load(in)
	cost, card, _ = p.costOf(root, in)
	return cost, card
}

func (p *Planner) costOf(n algebra.Plan, in Inputs) (cost, card float64, mask uint) {
	cm := p.cm
	switch v := n.(type) {
	case *algebra.ScanPlan:
		i, ok := p.idx[v.Rel.Name]
		if !ok { // not the query's: nothing read, nothing known
			return cm.Move, 0, 0
		}
		return math.Max(p.raw[i], 1) * cm.Move, p.base[i], 1 << uint(i)
	case *algebra.JoinPlan:
		lc, lcard, lm := p.costOf(v.Left, in)
		rc, rcard, rm := p.costOf(v.Right, in)
		mask = lm | rm
		i, ok := p.setOf[mask]
		if !ok { // a subset the enumeration never visits: a cross product
			i = p.addSet(mask)
			p.loadSet(i, in)
		}
		preds := p.scratch[:0]
		for _, j := range v.Preds {
			preds = append(preds, p.predOf(j, in))
		}
		p.scratch = preds
		s := &p.sets[i]
		card = p.cardOf(s, lcard, rcard, preds)
		total := lc + rc + p.joinCost(lcard, rcard, card)
		if s.credited {
			total = math.Max(total-s.credit, lc+rc)
		}
		return total, card, mask
	case *algebra.GroupPlan:
		c, card, mask := p.costOf(v.Input, in)
		return c + card*cm.AggUpdate, card, mask
	case *algebra.ProjectPlan:
		c, card, mask := p.costOf(v.Input, in)
		return c + card*cm.Move, card, mask
	default:
		return 0, 0, 0
	}
}

// predOf returns the index of predicate j, registering one the query does
// not have.
func (p *Planner) predOf(j algebra.JoinPred, in Inputs) int32 {
	for k := range p.preds {
		if p.preds[k].pred == j {
			return int32(k)
		}
	}
	p.addPred(j)
	p.loadPred(len(p.preds)-1, in.Obs)
	return int32(len(p.preds) - 1)
}
