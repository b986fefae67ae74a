package optimizer

import (
	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/props"
)

// This file implements the pairwise reordering conditions of Section 4 of
// the paper. Each rule validates an exchange between a parent operator r
// and the root s of one of its child subtrees, in the context of the
// current alternative tree (read/write sets are resolved against the
// attribute sets actually flowing on the tree's edges, per Definition 1's
// global record).
//
// All rules are direction-symmetric: the condition for moving r below s is
// the condition for moving s above r, so the reachability relation over
// plans is an equivalence and the enumeration's recursion is confluent.
// ROC (Definition 4) is not part of the rules: exchange requires it of
// every exchange, in both orders.

// rocOn checks the read-only conflict condition (Definition 4) between two
// positioned operators.
func rocOn(a, b *Tree) bool {
	return props.ROC(a.Reads(), a.Writes(), b.Reads(), b.Writes())
}

// rocExchanged reports whether ROC holds in q, the tree an exchange built
// from p, between q's root and p's root r, now below it. The sets are
// positional: an operator that projects its input writes what it drops, so
// one moved above an operator that adds an attribute drops that attribute,
// a conflict only the exchanged order shows.
func rocExchanged(p, q *Tree) bool {
	k := 0
	if q.Kids[0].Op != p.Op {
		k = 1
	}
	return rocOn(q, q.Kids[k])
}

// touches reports whether operator tree node n (its resolved reads or
// writes) intersects the attribute set attrs.
func touches(n *Tree, attrs props.FieldSet) bool {
	return !props.Disjoint(n.Reads(), attrs) || !props.Disjoint(n.Writes(), attrs)
}

// exchange pushes every tree obtained by exchanging p's root r with the
// root s of p.Kids[j] that Section 4 permits and the rule set enables.
// ROC in the written order is checked before any tree is built, ROC in
// the exchanged order on the tree built.
func (sf *subflows) exchange(p *Tree, j int) {
	c := p.Kids[j]
	if !rocOn(p, c) {
		return
	}
	r, s := p.Op, c.Op
	add := func(t *Tree) {
		if rocExchanged(p, t) {
			sf.stats.Exchanges++
			sf.push(t)
		}
	}
	switch {
	case !r.Kind.IsBinary() && !s.Kind.IsBinary():
		// r(s(X)) -> s(r(X))
		if sf.rules.UnaryUnary && unaryUnaryReorderable(p, c) {
			add(sf.node(s, sf.node(r, c.Kids[0], nil), nil))
		}

	case !r.Kind.IsBinary() && s.Kind.IsBinary():
		// Push unary r below binary s, into side 0 or 1.
		if !sf.rules.UnaryBinary {
			break
		}
		for side := 0; side < 2; side++ {
			if unaryBinaryReorderable(p, c, side) {
				add(sf.withKid(c, side, sf.node(r, c.Kids[side], nil)))
			}
		}

	case r.Kind.IsBinary() && !s.Kind.IsBinary():
		// Pull unary s above binary r (the inverse of the previous case;
		// the condition is evaluated on the *resulting* configuration,
		// which is exactly the unary-above-binary shape we already have a
		// predicate for — by symmetry we check it on the constructed tree).
		if !sf.rules.UnaryBinary {
			break
		}
		cand := sf.node(s, sf.withKid(p, j, c.Kids[0]), nil)
		if unaryBinaryReorderable(cand, cand.Kids[0], j) {
			add(cand)
		}

	case r.Kind.IsBinary() && s.Kind.IsBinary():
		// Join-join rotations (Lemma 1 and its Cross analogues). Two forms
		// exist per side, depending on which of the inner operator's
		// subtrees the outer operator's attributes live in.
		if !sf.rules.Rotations {
			break
		}
		x, y := c.Kids[0], c.Kids[1]
		z := p.Kids[1-j]
		if rotationReorderable(p, j) {
			if j == 0 {
				add(sf.node(s, x, sf.node(r, y, z))) // r(s(X,Y), Z) -> s(X, r(Y,Z))
			} else {
				add(sf.node(s, sf.node(r, z, x), y)) // r(Z, s(X,Y)) -> s(r(Z,X), Y)
			}
		}
		if crossRotationReorderable(p, j) {
			if j == 0 {
				add(sf.node(s, sf.node(r, x, z), y)) // r(s(X,Y), Z) -> s(r(X,Z), Y)
			} else {
				add(sf.node(s, x, sf.node(r, z, y))) // r(Z, s(X,Y)) -> s(X, r(Z,Y))
			}
		}
	}
}

// unaryUnaryReorderable implements Theorems 1 and 2 and the Reduce-Reduce
// rule: p is the parent tree (unary root r), c its child tree (unary root
// s).
func unaryUnaryReorderable(p, c *Tree) bool {
	r, s := p.Op, c.Op
	switch {
	case r.Kind == dataflow.KindMap && s.Kind == dataflow.KindMap:
		// Theorem 1: ROC, which exchange checks, suffices.
		return true
	case r.Kind == dataflow.KindMap && s.Kind == dataflow.KindReduce:
		// Theorem 2: the Map must preserve the Reduce's key groups.
		return p.Op.Effect.KGP(s.KeySet(0))
	case r.Kind == dataflow.KindReduce && s.Kind == dataflow.KindMap:
		return c.Op.Effect.KGP(r.KeySet(0))
	case r.Kind == dataflow.KindReduce && s.Kind == dataflow.KindReduce:
		// Section 4.2.2: ROC plus KGP for both UDF-key pairs. For KAT UDFs
		// this is the all-or-none group-preservation property, which static
		// analysis cannot derive (manual annotation only).
		return r.Effect.KGPGroup(s.KeySet(0)) && s.Effect.KGPGroup(r.KeySet(0))
	default:
		return false
	}
}

// unaryBinaryReorderable checks whether the unary root of p can descend
// into side `side` of the binary operator rooting p.Kids[0]. p must be a
// unary node directly above a binary child.
func unaryBinaryReorderable(p, c *Tree, side int) bool {
	u, b := p.Op, c.Op
	other := c.Kids[1-side]
	switch u.Kind {
	case dataflow.KindMap:
		// Theorem 3 (+ Theorem 1 applied to the Cartesian-product
		// transformation): besides ROC, the Map must not touch the other
		// side's attributes.
		if touches(p, other.Attrs()) {
			return false
		}
		// CoGroup is key-at-a-time: pushing a Map below it must preserve
		// the key groups of that side (tagged-union argument, Section
		// 4.3.2 with Theorem 2).
		if b.Kind == dataflow.KindCoGroup {
			return u.Effect != nil && u.Effect.KGP(b.KeySet(side))
		}
		return true
	case dataflow.KindReduce:
		// Invariant grouping (Section 4.3.2, Theorem 4 via the PK-FK
		// special case): the Reduce may move past a Match.
		if b.Kind != dataflow.KindMatch {
			return false
		}
		return reduceMatchReorderable(p, c, side)
	default:
		return false
	}
}

// reduceMatchReorderable implements the invariant-grouping rewrite: a
// Reduce directly above a Match may descend into the Match's FK side iff
//
//   - the Match is annotated as a PK-FK join with the FK on that side
//     (each FK-side record joins exactly one PK-side record, so key groups
//     survive the join);
//   - the Match's key on the FK side is a subset of the Reduce key (the
//     paper: the Reduce key is a superset of F, hence functionally
//     determines the PK side and can be extended with the PK side's
//     attributes, Theorem 4);
//   - the Reduce key exists below the Match on that side;
//   - ROC holds between the two UDFs (exchange checks it);
//   - the Match UDF preserves the Reduce's key groups (KGP);
//   - the Reduce touches no attribute of the PK side.
func reduceMatchReorderable(p, c *Tree, side int) bool {
	g, m := p.Op, c.Op
	if m.FKSide != side {
		return false
	}
	gKey := g.KeySet(0)
	if !m.KeySet(side).SubsetOf(gKey) {
		return false
	}
	if !gKey.SubsetOf(c.Kids[side].Attrs()) {
		return false
	}
	if m.Effect == nil || !m.Effect.KGP(gKey) {
		return false
	}
	if !touches(p, c.Kids[1-side].Attrs()) {
		// The FK property (each FK-side record joins at most one PK-side
		// record) must still hold for the PK side *as it appears in this
		// plan*: a PK side that is itself a join could duplicate keys. We
		// conservatively require a duplication-free operator chain.
		return preservesUniqueness(c.Kids[1-side])
	}
	return false
}

// preservesUniqueness conservatively reports whether a subtree cannot
// duplicate records of its underlying source: sources and chains of
// at-most-one-emitting unary operators qualify; joins and crosses do not.
func preservesUniqueness(t *Tree) bool {
	switch t.Op.Kind {
	case dataflow.KindSource:
		return true
	case dataflow.KindMap, dataflow.KindReduce:
		if t.Op.Effect == nil || !t.Op.Effect.EmitsAtMostOne() {
			return false
		}
		return preservesUniqueness(t.Kids[0])
	default:
		return false
	}
}

// rotationReorderable implements Lemma 1 (and its Cross analogues): the
// binary root r of p and the binary root s of p.Kids[childIdx] may rotate.
// For childIdx == 0: r(s(X,Y), Z) ⇄ s(X, r(Y,Z)) requires that s does not
// touch Z, r does not touch X, and ROC, which exchange checks.
// For childIdx == 1: r(X, s(Y,Z)) ⇄ s(r(X,Y), Z) symmetrically.
func rotationReorderable(p *Tree, childIdx int) bool {
	c := p.Kids[childIdx]
	r, s := p.Op, c.Op
	// CoGroup rotations would need the tagged-union machinery for both
	// operators simultaneously; the optimizer stays conservative and only
	// rotates Match and Cross (like the paper's prototype, which evaluates
	// join trees).
	okKind := func(k dataflow.OpKind) bool {
		return k == dataflow.KindMatch || k == dataflow.KindCross
	}
	if !okKind(r.Kind) || !okKind(s.Kind) {
		return false
	}
	var farAttrs, outerAttrs props.FieldSet
	if childIdx == 0 {
		farAttrs = c.Kids[0].Attrs()   // X: must not be touched by r
		outerAttrs = p.Kids[1].Attrs() // Z: must not be touched by s
	} else {
		farAttrs = c.Kids[1].Attrs()   // Z: must not be touched by r
		outerAttrs = p.Kids[0].Attrs() // X: must not be touched by s
	}
	if touches(p, farAttrs) {
		return false
	}
	return !touches(c, outerAttrs)
}

// crossRotationReorderable is the second rotation form: the outer
// operator's attributes live in the inner operator's *near* subtree.
// For childIdx == 0: r(s(X,Y), Z) ⇄ s(r(X,Z), Y) requires that r does not
// touch Y and s does not touch Z. For childIdx == 1:
// r(X, s(Y,Z)) ⇄ s(Y, r(X,Z)) requires that r does not touch Y and s does
// not touch X.
func crossRotationReorderable(p *Tree, childIdx int) bool {
	c := p.Kids[childIdx]
	r, s := p.Op, c.Op
	okKind := func(k dataflow.OpKind) bool {
		return k == dataflow.KindMatch || k == dataflow.KindCross
	}
	if !okKind(r.Kind) || !okKind(s.Kind) {
		return false
	}
	var innerFar, outerOther props.FieldSet
	if childIdx == 0 {
		innerFar = c.Kids[1].Attrs()   // Y: must not be touched by r
		outerOther = p.Kids[1].Attrs() // Z: must not be touched by s
	} else {
		innerFar = c.Kids[0].Attrs()   // Y: must not be touched by r
		outerOther = p.Kids[0].Attrs() // X: must not be touched by s
	}
	if touches(p, innerFar) {
		return false
	}
	return !touches(c, outerOther)
}
