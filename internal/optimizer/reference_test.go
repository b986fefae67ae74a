package optimizer

import (
	"sort"

	"blackboxflow/internal/dataflow"
)

// This file is a frozen copy of the enumerator as it was before sub-flows
// were hash-consed: a worklist over whole plans, memoized by canonical key
// string, that rebuilds fresh tree nodes for every neighbour of every plan.
// It is the differential reference for the production enumerator and, with
// one naive physical optimization per plan, for RankAllNet. It shares only
// the Section 4 predicates (unaryUnaryReorderable and friends) and the Tree
// type with production code; do not "simplify" it toward enum.go.

type refStats struct{ Expanded, MemoHits int }

func refEnumerate(t *Tree, rules *RuleSet) ([]*Tree, refStats) {
	var stats refStats
	memo := map[string]*Tree{t.Key(): t}
	queue := []*Tree{t}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		stats.Expanded++
		for _, n := range refNeighbors(p, rules) {
			k := n.Key()
			if _, seen := memo[k]; seen {
				stats.MemoHits++
				continue
			}
			memo[k] = n
			queue = append(queue, n)
		}
	}
	keys := make([]string, 0, len(memo))
	for k := range memo {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Tree, len(keys))
	for i, k := range keys {
		out[i] = memo[k]
	}
	return out, stats
}

func refNeighbors(t *Tree, rules *RuleSet) []*Tree {
	var out []*Tree
	if t.Op.IsUDFOp() {
		for j := range t.Kids {
			if !t.Kids[j].Op.IsUDFOp() {
				continue
			}
			for _, ex := range refExchanges(t, j) {
				if !refRuleEnabled(rules, ex.id) {
					continue
				}
				if nt := ex.build(t, j); nt != nil {
					out = append(out, nt)
				}
			}
		}
	}
	for j, kid := range t.Kids {
		for _, nk := range refNeighbors(kid, rules) {
			kids := make([]*Tree, len(t.Kids))
			copy(kids, t.Kids)
			kids[j] = nk
			out = append(out, NewTree(t.Op, kids...))
		}
	}
	return out
}

func refRuleEnabled(rules *RuleSet, id string) bool {
	switch id[:2] {
	case "uu":
		return rules.UnaryUnary
	case "ub", "bu":
		return rules.UnaryBinary
	case "bb", "bx":
		return rules.Rotations
	default:
		return true
	}
}

type refExchange struct {
	id    string
	build func(parent *Tree, childIdx int) *Tree
}

func refExchanges(p *Tree, childIdx int) []refExchange {
	r := p.Op
	child := p.Kids[childIdx]
	s := child.Op
	if !r.IsUDFOp() || !s.IsUDFOp() {
		return nil
	}
	var out []refExchange
	switch {
	case !r.Kind.IsBinary() && !s.Kind.IsBinary():
		if unaryUnaryReorderable(p, child) {
			out = append(out, refExchange{
				id: "uu",
				build: func(parent *Tree, ci int) *Tree {
					c := parent.Kids[ci]
					return NewTree(c.Op, NewTree(parent.Op, c.Kids...))
				},
			})
		}

	case !r.Kind.IsBinary() && s.Kind.IsBinary():
		for side := 0; side < 2; side++ {
			side := side
			if unaryBinaryReorderable(p, child, side) {
				out = append(out, refExchange{
					id: "ub" + string(rune('0'+side)),
					build: func(parent *Tree, ci int) *Tree {
						c := parent.Kids[ci]
						kids := make([]*Tree, 2)
						for i := range kids {
							if i == side {
								kids[i] = NewTree(parent.Op, c.Kids[i])
							} else {
								kids[i] = c.Kids[i]
							}
						}
						return NewTree(c.Op, kids...)
					},
				})
			}
		}

	case r.Kind.IsBinary() && !s.Kind.IsBinary():
		cand := refBuildUnaryAbove(p, childIdx)
		if cand != nil && unaryBinaryReorderable(cand, cand.Kids[0], childIdx) {
			out = append(out, refExchange{
				id: "bu" + string(rune('0'+childIdx)),
				build: func(parent *Tree, ci int) *Tree {
					return refBuildUnaryAbove(parent, ci)
				},
			})
		}

	case r.Kind.IsBinary() && s.Kind.IsBinary():
		if rotationReorderable(p, childIdx) {
			out = append(out, refExchange{
				id: "bb" + string(rune('0'+childIdx)),
				build: func(parent *Tree, ci int) *Tree {
					return refBuildRotation(parent, ci)
				},
			})
		}
		if crossRotationReorderable(p, childIdx) {
			out = append(out, refExchange{
				id: "bx" + string(rune('0'+childIdx)),
				build: func(parent *Tree, ci int) *Tree {
					return refBuildCrossRotation(parent, ci)
				},
			})
		}
	}
	return out
}

func refBuildUnaryAbove(p *Tree, childIdx int) *Tree {
	c := p.Kids[childIdx]
	if len(c.Kids) != 1 || len(p.Kids) != 2 {
		return nil
	}
	kids := make([]*Tree, 2)
	for i := range kids {
		if i == childIdx {
			kids[i] = c.Kids[0]
		} else {
			kids[i] = p.Kids[i]
		}
	}
	return NewTree(c.Op, NewTree(p.Op, kids...))
}

func refBuildRotation(p *Tree, childIdx int) *Tree {
	c := p.Kids[childIdx]
	if childIdx == 0 {
		// r(s(X,Y), Z) -> s(X, r(Y,Z))
		x, y := c.Kids[0], c.Kids[1]
		z := p.Kids[1]
		return NewTree(c.Op, x, NewTree(p.Op, y, z))
	}
	// r(X, s(Y,Z)) -> s(r(X,Y), Z)
	x := p.Kids[0]
	y, z := c.Kids[0], c.Kids[1]
	return NewTree(c.Op, NewTree(p.Op, x, y), z)
}

func refBuildCrossRotation(p *Tree, childIdx int) *Tree {
	c := p.Kids[childIdx]
	if childIdx == 0 {
		// r(s(X,Y), Z) -> s(r(X,Z), Y)
		x, y := c.Kids[0], c.Kids[1]
		z := p.Kids[1]
		return NewTree(c.Op, NewTree(p.Op, x, z), y)
	}
	// r(X, s(Y,Z)) -> s(Y, r(X,Z))
	x := p.Kids[0]
	y, z := c.Kids[0], c.Kids[1]
	return NewTree(c.Op, y, NewTree(p.Op, x, z))
}

// refRank is the reference for RankAllNet: every plan of the reference
// enumeration — trees that share no nodes — is costed on its own, with a
// fresh estimator and an unshared physical memo, then sorted like RankAllNet
// sorts.
func refRank(t *Tree, f *dataflow.Flow, dop int, budget float64, net NetProfile) []RankedPlan {
	alts, _ := refEnumerate(t, AllRules())
	ranked := make([]RankedPlan, 0, len(alts))
	for _, a := range alts {
		po := NewPhysicalOptimizer(NewEstimator(f), dop)
		po.ShareSubplans = false
		po.MemoryBudget = budget
		po.Net = net
		phys := po.Optimize(a)
		ranked = append(ranked, RankedPlan{Tree: a, Phys: phys, Cost: phys.Cost.Total(po.Weights)})
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].Cost != ranked[j].Cost {
			return ranked[i].Cost < ranked[j].Cost
		}
		return ranked[i].Tree.Key() < ranked[j].Tree.Key()
	})
	return ranked
}
