package sca

import (
	"fmt"

	"blackboxflow/internal/props"
	"blackboxflow/internal/tac"
)

// Analyze derives the symbolic Effect of a TAC user-defined function by
// static code analysis, implementing Section 5 of the paper:
//
//   - the read set is estimated by collecting getfield statements whose
//     temporary has a non-copy use (and aggregate reads for key-at-a-time
//     functions);
//   - the write set is estimated by tracing every emitted record back to
//     its constructor (copy constructor → implicit copy; default
//     constructor → implicit projection; when both appear, implicit
//     projection is the safe choice), then classifying each setfield as an
//     explicit copy, modification, add, or projection;
//   - emit cardinality bounds are computed on the control flow graph;
//   - the condition-read set (fields that may influence control flow) is a
//     flow-insensitive taint closure, used by the KGP test.
func Analyze(f *tac.Func) (*props.Effect, error) {
	// Field sets are dense bitsets: a static index outside their range is
	// rejected here, before it can size one.
	for i, in := range f.Body {
		switch in.Op {
		case tac.OpGetField, tac.OpSetField, tac.OpAgg:
			if !in.FieldVar && (in.Field < 0 || in.Field > props.MaxField) {
				return nil, fmt.Errorf("instr %d: field index %d out of range [0, %d]", i, in.Field, props.MaxField)
			}
		}
	}
	g := tac.BuildCFG(f)
	rd := ComputeReachingDefs(f, g)
	reach := g.Reachable()

	e := props.NewEffect(f.NumInputs())

	paramIndex := map[string]int{}
	for i, p := range f.Params {
		paramIndex[p] = i
	}

	a := &analysis{f: f, g: g, rd: rd, reach: reach, e: e, paramIndex: paramIndex}
	a.analyzeReads()
	a.analyzeConditionTaint()
	if err := a.analyzeEmitsAndWrites(); err != nil {
		return nil, err
	}
	a.analyzeEmitBounds()
	// CondReads are reads by construction; keep the invariant explicit.
	e.CondReads = props.Intersect(e.CondReads, e.Reads)
	return e, nil
}

// AnalyzeProgram analyzes every function of a program.
func AnalyzeProgram(p *tac.Program) (map[string]*props.Effect, error) {
	out := make(map[string]*props.Effect, len(p.Funcs))
	for _, name := range p.Order {
		e, err := Analyze(p.Funcs[name])
		if err != nil {
			return nil, fmt.Errorf("sca: %s: %w", name, err)
		}
		out[name] = e
	}
	return out, nil
}

type analysis struct {
	f          *tac.Func
	g          *tac.CFG
	rd         *ReachingDefs
	reach      []bool
	e          *props.Effect
	paramIndex map[string]int
	taintCache map[string]props.FieldSet
}

// analyzeReads implements the paper's read-set estimation: collect all
// statements $t := getfield($r, n); the field is read if $t has at least
// one use that is not a pure same-index copy into an output record.
// Aggregate built-ins read their field if their result is used.
func (a *analysis) analyzeReads() {
	for i, in := range a.f.Body {
		if !a.reach[i] {
			continue
		}
		switch in.Op {
		case tac.OpGetField:
			if in.FieldVar {
				// Dynamic access: index unknown at analysis time — the UDF
				// may read anything on its input.
				a.e.DynamicRead = true
				// The index expression's source fields are read as well;
				// the taint closure in analyzeConditionTaint covers
				// condition reads, here we conservatively mark the fields
				// feeding the index.
				a.e.Reads.UnionWith(a.taintFieldsOfOperand(in.A))
				continue
			}
			if a.hasNonCopyUse(i, in.Dst, in.Field) {
				a.e.Reads.Add(in.Field)
			}
		case tac.OpAgg:
			if len(a.rd.DefUse(i, in.Dst)) > 0 {
				a.e.Reads.Add(in.Field)
			}
		case tac.OpGroupGet:
			// A variable index selecting a record within a key group does
			// not read an attribute by itself; the subsequent getfields do.
		}
	}
}

// hasNonCopyUse reports whether the value defined at def (a getfield of
// field n) has any use other than being stored unchanged into the same
// field index of an output record. Pure copies do not make an attribute
// part of the read set (Definition 3: a read must be able to influence a
// *different* attribute or the cardinality).
func (a *analysis) hasNonCopyUse(def int, v string, n int) bool {
	for _, use := range a.rd.DefUse(def, v) {
		u := a.f.Body[use]
		if u.Op == tac.OpSetField && u.Field == n && u.A.IsVar() && u.A.Var == v && a.isPureCopyAt(use, v, n) {
			continue
		}
		return true
	}
	return false
}

// isPureCopyAt reports whether at instruction pos every reaching definition
// of v is a static getfield of exactly field n. Only then is storing v into
// field n an explicit copy.
func (a *analysis) isPureCopyAt(pos int, v string, n int) bool {
	defs := a.rd.UseDef(pos, v)
	if len(defs) == 0 {
		return false
	}
	for d := range defs {
		if d == ParamDef {
			return false
		}
		din := a.f.Body[d]
		if din.Op != tac.OpGetField || din.FieldVar || din.Field != n {
			return false
		}
	}
	return true
}

// analyzeConditionTaint computes the fields that may influence control flow
// (CondReads) as a flow-insensitive fixpoint over the def graph: a variable
// is tainted by the fields appearing in any of its definitions, and by the
// taints of the variables those definitions use.
func (a *analysis) analyzeConditionTaint() {
	// fieldsOf[v] = fields that may flow into v, over all defs.
	fieldsOf := map[string]props.FieldSet{}
	depends := map[string][]string{} // v -> vars used by v's defs
	// FieldSet is a value: read it out of the map, grow it, store it back.
	addField := func(v string, f int) {
		fs := fieldsOf[v]
		fs.Add(f)
		fieldsOf[v] = fs
	}
	for i, in := range a.f.Body {
		if !a.reach[i] {
			continue
		}
		d := in.Defs()
		if d == "" {
			continue
		}
		switch in.Op {
		case tac.OpGetField:
			if in.FieldVar {
				// Unknown field: handled via DynamicRead in KGP.
				if in.A.IsVar() {
					depends[d] = append(depends[d], in.A.Var)
				}
			} else {
				addField(d, in.Field)
			}
		case tac.OpAgg:
			addField(d, in.Field)
		default:
			for _, u := range in.Uses() {
				depends[d] = append(depends[d], u)
			}
		}
	}
	// Fixpoint propagation.
	for changed := true; changed; {
		changed = false
		for v, deps := range depends {
			fs := fieldsOf[v]
			before := fs.Len()
			for _, u := range deps {
				fs.UnionWith(fieldsOf[u])
			}
			if fs.Len() != before {
				changed = true
				fieldsOf[v] = fs
			}
		}
	}
	for i, in := range a.f.Body {
		if !a.reach[i] || in.Op != tac.OpIf {
			continue
		}
		for _, o := range []tac.Operand{in.A, in.B} {
			if o.IsVar() {
				a.e.CondReads.UnionWith(fieldsOf[o.Var])
			}
		}
	}
	a.taintCache = fieldsOf
}

// taintFieldsOfOperand resolves the fields feeding an operand using the
// taint closure computed by analyzeConditionTaint.
func (a *analysis) taintFieldsOfOperand(o tac.Operand) props.FieldSet {
	if !o.IsVar() {
		return nil
	}
	return a.taintCache[o.Var]
}

// analyzeEmitsAndWrites implements the write-set estimation: for every emit,
// resolve the emitted record's constructors; a parameter is implicitly
// copied only if *every* possible origin of *every* emit copies it (when a
// default constructor is a possible origin, implicit projection is the safe
// choice). Each setfield on an output record is classified as explicit
// copy, projection, or modification/add.
func (a *analysis) analyzeEmitsAndWrites() error {
	copiedOnAll := make([]bool, a.f.NumInputs())
	for i := range copiedOnAll {
		copiedOnAll[i] = true
	}
	sawEmit := false

	for i, in := range a.f.Body {
		if !a.reach[i] || in.Op != tac.OpEmit {
			continue
		}
		sawEmit = true
		origins, err := a.originsOf(in.Rec, i, map[originKey]bool{})
		if err != nil {
			return err
		}
		if len(origins.params) == 0 && !origins.fromNew {
			return fmt.Errorf("emit at instr %d: cannot resolve record origin", i)
		}
		for p := range copiedOnAll {
			if origins.fromNew || !origins.paramsCopiedAlways[p] {
				copiedOnAll[p] = false
			}
		}
	}
	if !sawEmit {
		// A UDF that never emits writes nothing and copies nothing.
		for i := range copiedOnAll {
			copiedOnAll[i] = false
		}
	}
	copy(a.e.CopiesParam, copiedOnAll)

	// Classify setfields (flow-insensitively over all output records —
	// conservative: any setfield may apply to any emitted record).
	for i, in := range a.f.Body {
		if !a.reach[i] || in.Op != tac.OpSetField {
			continue
		}
		switch {
		case !in.A.IsVar() && in.A.Imm.IsNull():
			a.e.Projects.Add(in.Field)
		case in.A.IsVar() && a.isPureCopyAt(i, in.A.Var, in.Field):
			a.e.Copies.Add(in.Field)
		default:
			a.e.Sets.Add(in.Field)
		}
	}
	return nil
}

type originKey struct {
	v   string
	def int
}

// origins describes the possible constructor provenance of a record
// variable at a program point.
type origins struct {
	// paramsCopiedAlways[p]: every resolved origin copies parameter p.
	paramsCopiedAlways []bool
	// params: the set of parameters copied by at least one origin.
	params map[int]bool
	// fromNew: some origin is the default constructor (newrec).
	fromNew bool
}

func (a *analysis) newOrigins() *origins {
	o := &origins{
		paramsCopiedAlways: make([]bool, a.f.NumInputs()),
		params:             map[int]bool{},
	}
	for i := range o.paramsCopiedAlways {
		o.paramsCopiedAlways[i] = true
	}
	return o
}

// originsOf resolves the constructor origins of record variable v at
// instruction pos, following reaching definitions through copyrec, concat,
// and groupget. The seen set guards against cycles in looping code.
func (a *analysis) originsOf(v string, pos int, seen map[originKey]bool) (*origins, error) {
	result := a.newOrigins()
	any := false

	// accumulate a single origin: the params it copies (possibly several,
	// via concat) or fromNew.
	accumulate := func(copied map[int]bool, fromNew bool) {
		any = true
		if fromNew {
			result.fromNew = true
			for i := range result.paramsCopiedAlways {
				result.paramsCopiedAlways[i] = false
			}
			return
		}
		for p := range copied {
			result.params[p] = true
		}
		for i := range result.paramsCopiedAlways {
			if !copied[i] {
				result.paramsCopiedAlways[i] = false
			}
		}
	}

	// copiesOfRecordExpr resolves which params a record expression copies.
	var copiesOfRecordExpr func(rec string, at int, out map[int]bool, isNew *bool) error
	copiesOfRecordExpr = func(rec string, at int, out map[int]bool, isNew *bool) error {
		if p, ok := a.paramIndex[rec]; ok {
			out[p] = true
			return nil
		}
		defs := a.rd.UseDef(at, rec)
		if len(defs) == 0 {
			return fmt.Errorf("record %s has no reaching definition at instr %d", rec, at)
		}
		for d := range defs {
			if d == ParamDef {
				if p, ok := a.paramIndex[rec]; ok {
					out[p] = true
					continue
				}
				return fmt.Errorf("unexpected parameter definition for %s", rec)
			}
			k := originKey{rec, d}
			if seen[k] {
				continue
			}
			seen[k] = true
			din := a.f.Body[d]
			switch din.Op {
			case tac.OpNewRec:
				*isNew = true
			case tac.OpCopyRec:
				if err := copiesOfRecordExpr(din.Rec, d, out, isNew); err != nil {
					return err
				}
			case tac.OpConcatRec:
				if err := copiesOfRecordExpr(din.Rec, d, out, isNew); err != nil {
					return err
				}
				if err := copiesOfRecordExpr(din.Rec2, d, out, isNew); err != nil {
					return err
				}
			case tac.OpGroupGet:
				if p, ok := a.paramIndex[din.Group]; ok {
					out[p] = true
				}
			default:
				return fmt.Errorf("record %s defined by non-constructor at instr %d", rec, d)
			}
		}
		return nil
	}

	// Resolve each reaching definition of v at pos as one origin.
	if p, ok := a.paramIndex[v]; ok {
		// Emitting an input parameter directly: an implicit copy of it.
		accumulate(map[int]bool{p: true}, false)
	} else {
		defs := a.rd.UseDef(pos, v)
		if len(defs) == 0 {
			return nil, fmt.Errorf("record %s has no reaching definition at instr %d", v, pos)
		}
		for d := range defs {
			if d == ParamDef {
				continue
			}
			copied := map[int]bool{}
			isNew := false
			din := a.f.Body[d]
			switch din.Op {
			case tac.OpNewRec:
				isNew = true
			case tac.OpCopyRec:
				if err := copiesOfRecordExpr(din.Rec, d, copied, &isNew); err != nil {
					return nil, err
				}
			case tac.OpConcatRec:
				if err := copiesOfRecordExpr(din.Rec, d, copied, &isNew); err != nil {
					return nil, err
				}
				if err := copiesOfRecordExpr(din.Rec2, d, copied, &isNew); err != nil {
					return nil, err
				}
			case tac.OpGroupGet:
				if p, ok := a.paramIndex[din.Group]; ok {
					copied[p] = true
				}
			default:
				return nil, fmt.Errorf("record %s defined by non-constructor at instr %d", v, d)
			}
			accumulate(copied, isNew)
		}
	}
	if !any {
		return nil, fmt.Errorf("record %s has no resolvable origin at instr %d", v, pos)
	}
	return result, nil
}

// analyzeEmitBounds computes [EmitMin, EmitMax] per invocation by dynamic
// programming over the SCC condensation of the CFG. An SCC that contains a
// cycle makes the bound above it unbounded if the cycle contains an emit,
// and contributes zero to the minimum (a loop body may execute zero times);
// this is exact for acyclic code and safely conservative for loops.
func (a *analysis) analyzeEmitBounds() {
	sccs := a.g.SCCs()
	if len(sccs) == 0 {
		a.e.EmitMin, a.e.EmitMax = 0, 0
		return
	}
	sccOf := make(map[int]int, len(a.f.Body))
	for i, scc := range sccs {
		for _, v := range scc {
			sccOf[v] = i
		}
	}
	type bound struct {
		min, max int // max == props.Unbounded for no bound
	}
	bounds := make([]bound, len(sccs))

	isCyclic := func(scc []int) bool {
		if len(scc) > 1 {
			return true
		}
		v := scc[0]
		for _, w := range a.g.Succs[v] {
			if w == v {
				return true
			}
		}
		return false
	}
	emitsIn := func(scc []int) int {
		n := 0
		for _, v := range scc {
			if a.f.Body[v].Op == tac.OpEmit {
				n++
			}
		}
		return n
	}

	// Tarjan emits SCCs in reverse topological order: every SCC's external
	// successors are already processed when we reach it.
	for i, scc := range sccs {
		// External successor SCCs.
		succSCCs := map[int]bool{}
		for _, v := range scc {
			for _, w := range a.g.Succs[v] {
				if j, ok := sccOf[w]; ok && j != i {
					succSCCs[j] = true
				}
			}
		}
		var b bound
		if len(succSCCs) == 0 {
			b = bound{0, 0}
		} else {
			first := true
			for j := range succSCCs {
				sb := bounds[j]
				if first {
					b = sb
					first = false
					continue
				}
				if sb.min < b.min {
					b.min = sb.min
				}
				if sb.max == props.Unbounded || b.max == props.Unbounded {
					b.max = props.Unbounded
				} else if sb.max > b.max {
					b.max = sb.max
				}
			}
		}
		k := emitsIn(scc)
		if isCyclic(scc) {
			// The loop may execute zero times (no contribution to min) or
			// arbitrarily often (unbounded max if it emits).
			if k > 0 {
				b.max = props.Unbounded
			}
		} else {
			b.min += k
			if b.max != props.Unbounded {
				b.max += k
			}
		}
		bounds[i] = b
	}
	entry := bounds[sccOf[0]]
	a.e.EmitMin, a.e.EmitMax = entry.min, entry.max
}
