package tac

import (
	"fmt"
	"strings"

	"blackboxflow/internal/record"
)

// program is a Func lowered once, by NewProgram: one op per instruction,
// operands resolved to typed slots and jump targets to indices. validate
// fixes one kind per variable, so scalars, records and groups live in
// separate slot arrays. A program is never written after NewProgram
// returns; everything a call writes lives in the Runner's regs.
type program struct {
	ops                      []op
	scalars, records, groups int // slot counts per kind
}

// op is one lowered instruction: the handler that executes it and its
// operands' typed slots. Names for error messages, immediates, field
// indices and operators it reads from in, which the Func holds anyway. A
// handler returns the index of the next instruction; len(ops) ends the call.
type op struct {
	exec         func(r *Runner, o *op) (int, error)
	in           *Instr
	a, b         operand
	rec, rec2    recRef
	dst, grp     int32 // typed slots of the defined variable and the group
	next, target int32
	width        int // fields a built record reserves room for (see reach)
}

// operand is a resolved scalar operand: the immediate (slot < 0) or a
// variable's typed slot. A variable of another kind is never a scalar.
type operand struct {
	slot   int32
	kind   uint8
	proven bool // a scalar variable mustDefined proves defined here
}

// fast reports whether the operand can be read with peek: no check needed.
func (x operand) fast() bool { return x.slot < 0 || x.proven }

type recRef struct {
	slot   int32
	proven bool
}

// Record slot states. A record is owned when the call built it (newrec,
// copyrec, concat, or the copy a setfield made) and nothing but its slot can
// see it: setfield within its capacity writes it in place, and emit hands it
// to the sink without a copy, its capacity clipped, and drops ownership.
// Every other record — a parameter, a groupget result, one already emitted —
// is copied first. A record is built once, with room for the fields its
// variable's static setfields reach, so widening it never copies again.
const (
	recUndef uint8 = iota
	recShared
	recOwned
)

// regs is one Runner's call state: the typed slots, which of them are
// defined, and the emit sink of the current call.
type regs struct {
	scalars []record.Value
	defined []bool // per scalar slot
	recs    []record.Record
	state   []uint8 // per record slot
	groups  []GroupSource
	emit    func(record.Record) error
}

func (p *program) newRegs() regs {
	return regs{
		scalars: make([]record.Value, p.scalars),
		defined: make([]bool, p.scalars),
		recs:    make([]record.Record, p.records),
		state:   make([]uint8, p.records),
		groups:  make([]GroupSource, p.groups),
	}
}

// reset starts a call: nothing the previous call left (record and group
// references included) survives.
func (rg *regs) reset(emit func(record.Record) error) {
	clear(rg.scalars)
	clear(rg.defined)
	clear(rg.recs)
	clear(rg.state)
	clear(rg.groups)
	rg.emit = emit
}

func (rg *regs) setScalar(s int32, v record.Value) {
	rg.scalars[s] = v
	rg.defined[s] = true
}

func (rg *regs) setRec(s int32, r record.Record, state uint8) {
	rg.recs[s] = r
	rg.state[s] = state
}

// lowering holds what lower derives about f before it fills the ops.
type lowering struct {
	f    *Func
	vars map[string]int // variable -> slot in variable order
	kind []uint8        // per variable
	slot []int32        // typed slot per variable
	in   []uint64       // must-defined variables on entry, w words per instruction
	w    int
}

// lower compiles a validated function, given the variable kinds validate
// returned for it.
func lower(f *Func, kinds map[string]uint8) *program {
	l := &lowering{f: f, vars: varSlots(f)}
	p := &program{ops: make([]op, len(f.Body))}
	l.classify(p, kinds)
	l.mustDefined()
	reach := map[string]int{} // per record variable: the width its setfields reach
	for _, in := range f.Body {
		if in.Op == OpSetField {
			reach[in.Rec] = max(reach[in.Rec], in.Field+1)
		}
	}
	for i, in := range f.Body {
		o := &p.ops[i]
		*o = op{
			in: in, next: int32(i + 1), target: int32(len(f.Body)), // OpReturn's target ends the call
			a: l.operand(in.A, i), b: l.operand(in.B, i),
			rec: l.record(in.Rec, i), rec2: l.record(in.Rec2, i),
			dst: l.typed(in.Dst), grp: l.typed(in.Group),
		}
		if in.Target != "" {
			o.target = int32(f.labelIndex[in.Target])
		}
		o.width = reach[in.Dst] // the record the op builds, or widens
		if in.Op == OpSetField {
			o.width = reach[in.Rec]
		}
		o.exec = handler(o)
	}
	return p
}

// classify takes every variable's kind from validate — a variable it did
// not return is a scalar that is never defined — and numbers the slots of
// each kind in variable order, so parameters take slots 0 and 1 of theirs.
func (l *lowering) classify(p *program, kinds map[string]uint8) {
	l.kind = make([]uint8, len(l.vars))
	l.slot = make([]int32, len(l.vars))
	for v, i := range l.vars {
		l.kind[i] = kinds[v]
	}
	var n [3]int32
	for v, k := range l.kind {
		l.slot[v] = n[k]
		n[k]++
	}
	p.scalars, p.records, p.groups = int(n[kindScalar]), int(n[kindRecord]), int(n[kindGroup])
}

// mustDefined computes, for every instruction, the variables defined on
// every path from the entry to it (a forward must-analysis over BuildCFG:
// the parameters at the entry, each instruction adding what it defines,
// intersection at joins). A use in that set skips its runtime definedness
// check. Unreachable instructions keep the full set; they never run.
func (l *lowering) mustDefined() {
	f, w := l.f, (len(l.vars)+63)/64
	n := len(f.Body)
	l.w, l.in = w, make([]uint64, n*w)
	for i := w; i < len(l.in); i++ {
		l.in[i] = ^uint64(0)
	}
	entry := make([]uint64, w)
	for _, p := range f.Params {
		v := l.vars[p]
		entry[v/64] |= 1 << (v % 64)
	}
	def := make([]int, n) // variable each instruction defines, or -1
	for i, in := range f.Body {
		def[i] = -1
		if d := in.Defs(); d != "" {
			def[i] = l.vars[d]
		}
	}
	preds := BuildCFG(f).Preds
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			for k := 0; k < w; k++ {
				v := ^uint64(0)
				if i == 0 {
					v = entry[k]
				}
				for _, p := range preds[i] {
					out := l.in[p*w+k]
					if d := def[p]; d >= 0 && d/64 == k {
						out |= 1 << (d % 64)
					}
					v &= out
				}
				if l.in[i*w+k] != v {
					l.in[i*w+k] = v
					changed = true
				}
			}
		}
	}
}

func (l *lowering) proven(pos int, name string) bool {
	v := l.vars[name]
	return l.in[pos*l.w+v/64]&(1<<(v%64)) != 0
}

func (l *lowering) operand(o Operand, pos int) operand {
	if !o.IsVar() {
		return operand{slot: -1}
	}
	k := l.kind[l.vars[o.Var]]
	return operand{slot: l.typed(o.Var), kind: k, proven: k == kindScalar && l.proven(pos, o.Var)}
}

func (l *lowering) record(name string, pos int) recRef {
	if name == "" {
		return recRef{slot: -1}
	}
	return recRef{slot: l.typed(name), proven: l.proven(pos, name)}
}

// typed returns the typed slot of a variable, or -1 for none.
func (l *lowering) typed(name string) int32 {
	if name == "" {
		return -1
	}
	return l.slot[l.vars[name]]
}

// handler picks the op's handler. Each performs exactly what the reference
// interpreter's case does, checks and errors in the same order. The fast
// paths, one per instruction shape the workloads execute in their hot
// loops, skip only the checks mustDefined proved and, when both operands
// are ints, the generic value dispatch; otherwise they fall back to the
// generic handler.
func handler(o *op) func(*Runner, *op) (int, error) {
	in := o.in
	switch in.Op {
	case OpReturn, OpGoto:
		return execJump
	case OpConst:
		return execConst
	case OpAssign:
		return execAssign
	case OpBin:
		switch {
		case in.Bin == BinContains && o.a.fast() && !in.B.IsVar():
			return execContainsImm
		case in.Bin == BinAdd && o.a.fast() && o.b.fast():
			return execAddInts
		}
		return execBin
	case OpUn:
		return execUn
	case OpGetField:
		if !in.FieldVar && o.rec.proven {
			return execGetFieldStatic
		}
		return execGetField
	case OpSetField:
		return execSetField
	case OpNewRec:
		return execNewRec
	case OpCopyRec:
		return execCopyRec
	case OpConcatRec:
		return execConcat
	case OpEmit:
		return execEmit
	case OpIf:
		if isOrder(in.Cmp) && o.a.fast() && o.b.fast() {
			return execIfOrderInts
		}
		return execIf
	case OpGroupSize:
		return execGroupSize
	case OpGroupGet:
		return execGroupGet
	case OpAgg:
		return execAgg
	}
	return execInvalid
}

// scalar reads a scalar operand, checking what the lowering could not
// prove.
func (o *op) scalar(r *Runner, x operand, src *Operand) (record.Value, error) {
	rg := &r.rg
	switch {
	case x.slot < 0:
		return src.Imm, nil
	case x.proven || x.kind == kindScalar && rg.defined[x.slot]:
		return rg.scalars[x.slot], nil
	case x.kind == kindScalar || x.kind == kindRecord && rg.state[x.slot] == recUndef:
		return record.Null, fmt.Errorf("%s: use of undefined variable %s", o.in.at(r.f.Name), src.Var)
	}
	return record.Null, fmt.Errorf("%s: %s is not a scalar", o.in.at(r.f.Name), src.Var)
}

func (o *op) valA(r *Runner) (record.Value, error) { return o.scalar(r, o.a, &o.in.A) }
func (o *op) valB(r *Runner) (record.Value, error) { return o.scalar(r, o.b, &o.in.B) }

// peek reads a fast operand in place.
func peek(r *Runner, x operand, src *Operand) *record.Value {
	if x.slot < 0 {
		return &src.Imm
	}
	return &r.rg.scalars[x.slot]
}

func (o *op) record(r *Runner, x recRef, name string) (record.Record, error) {
	if !x.proven && r.rg.state[x.slot] == recUndef {
		return nil, fmt.Errorf("%s: use of undefined record %s", o.in.at(r.f.Name), name)
	}
	return r.rg.recs[x.slot], nil
}

// fail attributes a value-semantics error to the function and instruction.
func (o *op) fail(r *Runner, err error) error {
	return fmt.Errorf("%s: %w", o.in.at(r.f.Name), err)
}

func execJump(_ *Runner, o *op) (int, error) { return int(o.target), nil }

func execConst(r *Runner, o *op) (int, error) {
	r.rg.setScalar(o.dst, o.in.A.Imm)
	return int(o.next), nil
}

func execAssign(r *Runner, o *op) (int, error) {
	v, err := o.valA(r)
	if err != nil {
		return 0, err
	}
	r.rg.setScalar(o.dst, v)
	return int(o.next), nil
}

func execBin(r *Runner, o *op) (int, error) {
	x, err := o.valA(r)
	if err != nil {
		return 0, err
	}
	y, err := o.valB(r)
	if err != nil {
		return 0, err
	}
	v, err := evalBin(o.in.Bin, x, y)
	if err != nil {
		return 0, o.fail(r, err)
	}
	r.rg.setScalar(o.dst, v)
	return int(o.next), nil
}

// execContainsImm serves the text-mining burn loops' `$w := $txt contains
// "zqzq"`.
func execContainsImm(r *Runner, o *op) (int, error) {
	txt := peek(r, o.a, &o.in.A).AsString()
	r.rg.setScalar(o.dst, record.Bool(strings.Contains(txt, o.in.B.Imm.AsString())))
	return int(o.next), nil
}

// execAddInts serves the loop counters: the burn loops' and the
// click-session scan's `$i := $i + 1`.
func execAddInts(r *Runner, o *op) (int, error) {
	x, y := peek(r, o.a, &o.in.A), peek(r, o.b, &o.in.B)
	if x.Kind() != record.KindInt || y.Kind() != record.KindInt {
		return execBin(r, o)
	}
	r.rg.setScalar(o.dst, record.Int(x.AsInt()+y.AsInt()))
	return int(o.next), nil
}

func execUn(r *Runner, o *op) (int, error) {
	x, err := o.valA(r)
	if err != nil {
		return 0, err
	}
	v, err := evalUn(o.in.Un, x)
	if err != nil {
		return 0, o.fail(r, err)
	}
	r.rg.setScalar(o.dst, v)
	return int(o.next), nil
}

// execGetFieldStatic serves every workload's field reads, e.g. Q7's
// `$d := getfield $ir 7`.
func execGetFieldStatic(r *Runner, o *op) (int, error) {
	r.rg.setScalar(o.dst, r.rg.recs[o.rec.slot].Field(o.in.Field))
	return int(o.next), nil
}

func execGetField(r *Runner, o *op) (int, error) {
	rec, err := o.record(r, o.rec, o.in.Rec)
	if err != nil {
		return 0, err
	}
	idx := o.in.Field
	if o.in.FieldVar {
		iv, err := o.valA(r)
		if err != nil {
			return 0, err
		}
		idx = int(iv.AsInt())
	}
	r.rg.setScalar(o.dst, rec.Field(idx))
	return int(o.next), nil
}

func execSetField(r *Runner, o *op) (int, error) {
	rg, s, field := &r.rg, o.rec.slot, o.in.Field
	if !o.rec.proven && rg.state[s] == recUndef {
		return 0, fmt.Errorf("%s: %s is not a record", o.in.at(r.f.Name), o.in.Rec)
	}
	v, err := o.valA(r)
	if err != nil {
		return 0, err
	}
	rec := rg.recs[s]
	if rg.state[s] == recOwned && field < cap(rec) {
		rec = rec[:max(len(rec), field+1)] // the reserved room is Null
	} else {
		rec = built(rec, max(len(rec), field+1), o.width)
	}
	rec[field] = v
	rg.setRec(s, rec, recOwned)
	return int(o.next), nil
}

// built copies rec into a new record of n fields with room for c.
func built(rec record.Record, n, c int) record.Record {
	b := make(record.Record, n, max(n, c))
	copy(b, rec)
	return b
}

func execNewRec(r *Runner, o *op) (int, error) {
	r.rg.setRec(o.dst, built(nil, 0, o.width), recOwned)
	return int(o.next), nil
}

func execCopyRec(r *Runner, o *op) (int, error) {
	rec, err := o.record(r, o.rec, o.in.Rec)
	if err != nil {
		return 0, err
	}
	r.rg.setRec(o.dst, built(rec, len(rec), o.width), recOwned)
	return int(o.next), nil
}

func execConcat(r *Runner, o *op) (int, error) {
	r1, err := o.record(r, o.rec, o.in.Rec)
	if err != nil {
		return 0, err
	}
	r2, err := o.record(r, o.rec2, o.in.Rec2)
	if err != nil {
		return 0, err
	}
	// Merge's overlay, into the built record.
	rec := built(r1, max(len(r1), len(r2)), o.width)
	for i, v := range r2 {
		if !v.IsNull() {
			rec[i] = v
		}
	}
	r.rg.setRec(o.dst, rec, recOwned)
	return int(o.next), nil
}

func execEmit(r *Runner, o *op) (int, error) {
	rec, err := o.record(r, o.rec, o.in.Rec)
	if err != nil {
		return 0, err
	}
	if r.rg.state[o.rec.slot] == recOwned {
		r.rg.state[o.rec.slot] = recShared
		rec = rec[:len(rec):len(rec)]
	} else {
		rec = rec.Clone()
	}
	if err := r.rg.emit(rec); err != nil {
		return 0, emitError{err: err}
	}
	return int(o.next), nil
}

func execIf(r *Runner, o *op) (int, error) {
	x, err := o.valA(r)
	if err != nil {
		return 0, err
	}
	take := x.AsBool() // truthiness test: if $a goto L
	if o.in.Cmp != BinInvalid {
		y, err := o.valB(r)
		if err != nil {
			return 0, err
		}
		v, err := evalBin(o.in.Cmp, x, y)
		if err != nil {
			return 0, o.fail(r, err)
		}
		take = v.AsBool()
	}
	if take {
		return int(o.target), nil
	}
	return int(o.next), nil
}

// execIfOrderInts serves the loop and range tests: the burn loops' `if $i <
// 40 goto B2`, the click-session scan's `if $i < $n`, Q7's `if $d >= 8766`.
func execIfOrderInts(r *Runner, o *op) (int, error) {
	x, y := peek(r, o.a, &o.in.A), peek(r, o.b, &o.in.B)
	if x.Kind() != record.KindInt || y.Kind() != record.KindInt {
		return execIf(r, o)
	}
	if orderInts(o.in.Cmp, x.AsInt(), y.AsInt()) {
		return int(o.target), nil
	}
	return int(o.next), nil
}

func execGroupSize(r *Runner, o *op) (int, error) {
	r.rg.setScalar(o.dst, record.Int(int64(r.rg.groups[o.grp].Len())))
	return int(o.next), nil
}

func execGroupGet(r *Runner, o *op) (int, error) {
	g := r.rg.groups[o.grp]
	iv, err := o.valA(r)
	if err != nil {
		return 0, err
	}
	i := int(iv.AsInt())
	if i < 0 || i >= g.Len() {
		return 0, fmt.Errorf("%s: groupget index %d out of range [0,%d)", o.in.at(r.f.Name), i, g.Len())
	}
	r.rg.setRec(o.dst, g.At(i), recShared)
	return int(o.next), nil
}

func execAgg(r *Runner, o *op) (int, error) {
	v, err := evalAgg(o.in.Agg, r.rg.groups[o.grp], o.in.Field)
	if err != nil {
		return 0, o.fail(r, err)
	}
	r.rg.setScalar(o.dst, v)
	return int(o.next), nil
}

func execInvalid(r *Runner, o *op) (int, error) {
	return 0, fmt.Errorf("%s: invalid opcode", o.in.at(r.f.Name))
}

func isOrder(op BinOp) bool { return op == BinLt || op == BinLe || op == BinGt || op == BinGe }

// orderInts is Value.Compare's verdict on two ints, which compares them as
// int64.
func orderInts(cmp BinOp, x, y int64) bool {
	switch cmp {
	case BinLt:
		return x < y
	case BinLe:
		return x <= y
	case BinGt:
		return x > y
	}
	return x >= y
}

// varSlots numbers f's variables, parameters first and the rest in order of
// appearance: each variable's slot in a call's frame.
func varSlots(f *Func) map[string]int {
	slots := map[string]int{}
	add := func(v string) {
		if _, ok := slots[v]; v != "" && !ok {
			slots[v] = len(slots)
		}
	}
	for _, p := range f.Params {
		add(p)
	}
	for _, in := range f.Body {
		add(in.Dst)
		add(in.A.Var)
		add(in.B.Var)
		add(in.Rec)
		add(in.Rec2)
		add(in.Group)
	}
	return slots
}
