package tac

import (
	"fmt"
	"strings"

	"blackboxflow/internal/record"
)

// DefaultStepLimit bounds the number of instructions a single UDF invocation
// may execute, guarding against non-terminating user code.
const DefaultStepLimit = 10_000_000

// rtKind tags a runtime value.
type rtKind uint8

const (
	rtScalar rtKind = iota
	rtRecord
	rtGroup
)

// GroupSource is the interpreter's view of one key group. The group
// operations need only three capabilities — the group's size, cell access
// for aggregation, and row materialization for OpGroupGet — so a columnar
// execution layer can hand the interpreter a view over its column arrays
// (record.ColGroup) and OpAgg walks the columns directly: no Record is
// boxed per group member, only the rows the UDF explicitly asks for.
// Materialized []record.Record groups adapt via Records.
type GroupSource interface {
	// Len returns the number of records in the group.
	Len() int
	// At materializes the i-th record (arrival order within the group).
	At(i int) record.Record
	// Field returns field f of the i-th record without materializing it.
	Field(i, f int) record.Value
}

// rtVal is a runtime value: a scalar, a (mutable) record, or a key group.
type rtVal struct {
	kind rtKind
	s    record.Value
	rec  record.Record
	grp  GroupSource
}

// Interp executes TAC functions through Runners. The zero value is not
// usable; construct with NewInterp. An Interp holds only the step limit and
// is safe for concurrent use by multiple goroutines; each goroutine calls
// UDFs through its own Runner.
type Interp struct {
	stepLimit int
}

// NewInterp returns an interpreter with the default step limit.
func NewInterp() *Interp { return &Interp{stepLimit: DefaultStepLimit} }

// WithStepLimit returns a copy of the interpreter with the given per-call
// instruction budget.
func (ip *Interp) WithStepLimit(n int) *Interp { return &Interp{stepLimit: n} }

// frame is one invocation's variable store, indexed by the slots the
// parser assigned. set[i] reports whether slot i holds a defined value.
type frame struct {
	vals []rtVal
	set  []bool
}

func (fr *frame) def(slot int, v rtVal) {
	fr.vals[slot] = v
	fr.set[slot] = true
}

// Records adapts a materialized row group to GroupSource.
type Records []record.Record

func (g Records) Len() int                    { return len(g) }
func (g Records) At(i int) record.Record      { return g[i] }
func (g Records) Field(i, f int) record.Value { return g[i].Field(f) }

// Runner is the one way to call a UDF: it binds an interpreter to one
// function of one kind, owns the call frame — reused across calls, so a
// steady-state call allocates nothing beyond the records the UDF itself
// emits — and hands every output record (already cloned; the sink may
// retain it) to the emit sink of the call. Map, Binary, Reduce and CoGroup
// are the four argument shapes of that one call; the kind checked at
// NewRunner says which of them the runner's owner uses. An error returned by
// emit aborts the call and is reported verbatim — distinguish it from a UDF
// error with AsEmitError. A Runner is not safe for concurrent use: one per
// goroutine.
type Runner struct {
	ip *Interp
	f  *Func
	fr frame
}

// NewRunner returns a reusable runner for f, which must be of the given
// kind and declare that kind's number of parameters.
func (ip *Interp) NewRunner(f *Func, kind Kind) (*Runner, error) {
	if f.Kind != kind {
		return nil, fmt.Errorf("tac: %s is not a %s function", f.Name, kind)
	}
	if n := f.NumInputs(); len(f.Params) != n || f.NumSlots() < n {
		return nil, fmt.Errorf("tac: %s function %s needs %d distinct parameters, has %v", kind, f.Name, n, f.Params)
	}
	n := f.NumSlots()
	return &Runner{ip: ip, f: f, fr: frame{vals: make([]rtVal, n), set: make([]bool, n)}}, nil
}

// call runs the function on up to two arguments, clearing what the previous
// call left in the frame first (record and group references included).
func (r *Runner) call(emit func(record.Record) error, args ...rtVal) error {
	clear(r.fr.vals)
	clear(r.fr.set)
	for slot, a := range args {
		r.fr.def(slot, a)
	}
	return r.ip.runEmit(r.f, &r.fr, emit)
}

// Map calls a map-kind UDF on one input record.
func (r *Runner) Map(in record.Record, emit func(record.Record) error) error {
	return r.call(emit, rtVal{kind: rtRecord, rec: in})
}

// Binary calls a binary (Cross/Match) UDF on a pair of records.
func (r *Runner) Binary(left, right record.Record, emit func(record.Record) error) error {
	return r.call(emit, rtVal{kind: rtRecord, rec: left}, rtVal{kind: rtRecord, rec: right})
}

// Reduce calls a reduce-kind UDF on one key group. Aggregation opcodes read
// cells through the source, so a columnar group (record.ColGroup)
// aggregates without materializing its rows.
func (r *Runner) Reduce(group GroupSource, emit func(record.Record) error) error {
	return r.call(emit, rtVal{kind: rtGroup, grp: group})
}

// CoGroup calls a cogroup-kind UDF on a pair of key groups (either may be
// empty).
func (r *Runner) CoGroup(left, right GroupSource, emit func(record.Record) error) error {
	return r.call(emit, rtVal{kind: rtGroup, grp: left}, rtVal{kind: rtGroup, grp: right})
}

// emitError wraps an error returned by an emit sink so callers can tell sink
// failures (already wrapped by whoever produced them) from UDF failures
// (which the engine wraps with the operator name).
type emitError struct{ err error }

func (e emitError) Error() string { return e.err.Error() }
func (e emitError) Unwrap() error { return e.err }

// AsEmitError unwraps an error produced by an emit sink, reporting whether
// err was one.
func AsEmitError(err error) (error, bool) {
	if ee, ok := err.(emitError); ok {
		return ee.err, true
	}
	return nil, false
}

// runEmit executes f, passing every emitted record (already cloned) to emit.
func (ip *Interp) runEmit(f *Func, fr *frame, emit func(record.Record) error) error {
	pc := 0
	steps := 0
	body := f.Body
	for pc < len(body) {
		steps++
		if steps > ip.stepLimit {
			return fmt.Errorf("tac: %s exceeded step limit %d", f.Name, ip.stepLimit)
		}
		in := body[pc]
		switch in.Op {
		case OpReturn:
			return nil

		case OpConst:
			fr.def(in.dstSlot, rtVal{kind: rtScalar, s: in.A.Imm})

		case OpAssign:
			v, err := fr.scalar(in.A, in.aSlot, in)
			if err != nil {
				return err
			}
			fr.def(in.dstSlot, rtVal{kind: rtScalar, s: v})

		case OpBin:
			a, err := fr.scalar(in.A, in.aSlot, in)
			if err != nil {
				return err
			}
			b, err := fr.scalar(in.B, in.bSlot, in)
			if err != nil {
				return err
			}
			v, err := evalBin(in.Bin, a, b)
			if err != nil {
				return fmt.Errorf("tac: %s instr %d: %w", f.Name, in.pos, err)
			}
			fr.def(in.dstSlot, rtVal{kind: rtScalar, s: v})

		case OpUn:
			a, err := fr.scalar(in.A, in.aSlot, in)
			if err != nil {
				return err
			}
			v, err := evalUn(in.Un, a)
			if err != nil {
				return fmt.Errorf("tac: %s instr %d: %w", f.Name, in.pos, err)
			}
			fr.def(in.dstSlot, rtVal{kind: rtScalar, s: v})

		case OpGetField:
			r, err := fr.rec(in.recSlot, in.Rec, in)
			if err != nil {
				return err
			}
			idx := in.Field
			if in.FieldVar {
				iv, err := fr.scalar(in.A, in.aSlot, in)
				if err != nil {
					return err
				}
				idx = int(iv.AsInt())
			}
			fr.def(in.dstSlot, rtVal{kind: rtScalar, s: r.Field(idx)})

		case OpSetField:
			if !fr.set[in.recSlot] || fr.vals[in.recSlot].kind != rtRecord {
				return fmt.Errorf("tac: %s instr %d: %s is not a record", f.Name, in.pos, in.Rec)
			}
			v, err := fr.scalar(in.A, in.aSlot, in)
			if err != nil {
				return err
			}
			rv := fr.vals[in.recSlot]
			if in.Field >= len(rv.rec) {
				rv.rec = rv.rec.WithField(in.Field, v)
			} else {
				rv.rec = rv.rec.Clone()
				rv.rec.SetField(in.Field, v)
			}
			fr.vals[in.recSlot] = rv

		case OpNewRec:
			fr.def(in.dstSlot, rtVal{kind: rtRecord, rec: record.Record{}})

		case OpCopyRec:
			r, err := fr.rec(in.recSlot, in.Rec, in)
			if err != nil {
				return err
			}
			fr.def(in.dstSlot, rtVal{kind: rtRecord, rec: r.Clone()})

		case OpConcatRec:
			r1, err := fr.rec(in.recSlot, in.Rec, in)
			if err != nil {
				return err
			}
			r2, err := fr.rec(in.rec2Slot, in.Rec2, in)
			if err != nil {
				return err
			}
			fr.def(in.dstSlot, rtVal{kind: rtRecord, rec: r1.Merge(r2)})

		case OpEmit:
			r, err := fr.rec(in.recSlot, in.Rec, in)
			if err != nil {
				return err
			}
			if err := emit(r.Clone()); err != nil {
				return emitError{err: err}
			}

		case OpGoto:
			pc = in.target
			continue

		case OpIf:
			take, err := fr.cond(in)
			if err != nil {
				return fmt.Errorf("tac: %s instr %d: %w", f.Name, in.pos, err)
			}
			if take {
				pc = in.target
				continue
			}

		case OpGroupSize:
			g, err := fr.grp(in.groupSlot, in.Group, in)
			if err != nil {
				return err
			}
			fr.def(in.dstSlot, rtVal{kind: rtScalar, s: record.Int(int64(g.Len()))})

		case OpGroupGet:
			g, err := fr.grp(in.groupSlot, in.Group, in)
			if err != nil {
				return err
			}
			iv, err := fr.scalar(in.A, in.aSlot, in)
			if err != nil {
				return err
			}
			i := int(iv.AsInt())
			if i < 0 || i >= g.Len() {
				return fmt.Errorf("tac: %s instr %d: groupget index %d out of range [0,%d)", f.Name, in.pos, i, g.Len())
			}
			fr.def(in.dstSlot, rtVal{kind: rtRecord, rec: g.At(i)})

		case OpAgg:
			g, err := fr.grp(in.groupSlot, in.Group, in)
			if err != nil {
				return err
			}
			v, err := evalAgg(in.Agg, g, in.Field)
			if err != nil {
				return fmt.Errorf("tac: %s instr %d: %w", f.Name, in.pos, err)
			}
			fr.def(in.dstSlot, rtVal{kind: rtScalar, s: v})

		default:
			return fmt.Errorf("tac: %s instr %d: invalid opcode", f.Name, in.pos)
		}
		pc++
	}
	return nil
}

// scalar resolves an operand: an immediate, or a defined scalar slot.
func (fr *frame) scalar(o Operand, slot int, in *Instr) (record.Value, error) {
	if !o.IsVar() {
		return o.Imm, nil
	}
	if slot < 0 || !fr.set[slot] {
		return record.Null, fmt.Errorf("tac: instr %d: use of undefined variable %s", in.pos, o.Var)
	}
	v := fr.vals[slot]
	if v.kind != rtScalar {
		return record.Null, fmt.Errorf("tac: instr %d: %s is not a scalar", in.pos, o.Var)
	}
	return v.s, nil
}

func (fr *frame) rec(slot int, name string, in *Instr) (record.Record, error) {
	if slot < 0 || !fr.set[slot] {
		return nil, fmt.Errorf("tac: instr %d: use of undefined record %s", in.pos, name)
	}
	v := fr.vals[slot]
	if v.kind != rtRecord {
		return nil, fmt.Errorf("tac: instr %d: %s is not a record", in.pos, name)
	}
	return v.rec, nil
}

func (fr *frame) grp(slot int, name string, in *Instr) (GroupSource, error) {
	if slot < 0 || !fr.set[slot] {
		return nil, fmt.Errorf("tac: instr %d: use of undefined group %s", in.pos, name)
	}
	v := fr.vals[slot]
	if v.kind != rtGroup {
		return nil, fmt.Errorf("tac: instr %d: %s is not a group", in.pos, name)
	}
	return v.grp, nil
}

func (fr *frame) cond(in *Instr) (bool, error) {
	a, err := fr.scalar(in.A, in.aSlot, in)
	if err != nil {
		return false, err
	}
	if in.Cmp == BinInvalid { // truthiness test: if $a goto L
		return a.AsBool(), nil
	}
	b, err := fr.scalar(in.B, in.bSlot, in)
	if err != nil {
		return false, err
	}
	v, err := evalBin(in.Cmp, a, b)
	if err != nil {
		return false, err
	}
	return v.AsBool(), nil
}

func evalBin(op BinOp, a, b record.Value) (record.Value, error) {
	switch op {
	case BinAdd, BinSub, BinMul, BinDiv, BinMod:
		return evalArith(op, a, b)
	case BinAnd:
		return record.Bool(a.AsBool() && b.AsBool()), nil
	case BinOr:
		return record.Bool(a.AsBool() || b.AsBool()), nil
	case BinEq:
		return record.Bool(a.Equal(b)), nil
	case BinNe:
		return record.Bool(!a.Equal(b)), nil
	case BinLt:
		return record.Bool(a.Compare(b) < 0), nil
	case BinLe:
		return record.Bool(a.Compare(b) <= 0), nil
	case BinGt:
		return record.Bool(a.Compare(b) > 0), nil
	case BinGe:
		return record.Bool(a.Compare(b) >= 0), nil
	case BinConcat:
		return record.String(a.AsString() + b.AsString()), nil
	case BinContains:
		return record.Bool(strings.Contains(a.AsString(), b.AsString())), nil
	default:
		return record.Null, fmt.Errorf("invalid binary op")
	}
}

func evalArith(op BinOp, a, b record.Value) (record.Value, error) {
	if a.Kind() == record.KindInt && b.Kind() == record.KindInt {
		x, y := a.AsInt(), b.AsInt()
		switch op {
		case BinAdd:
			return record.Int(x + y), nil
		case BinSub:
			return record.Int(x - y), nil
		case BinMul:
			return record.Int(x * y), nil
		case BinDiv:
			if y == 0 {
				return record.Null, fmt.Errorf("integer division by zero")
			}
			return record.Int(x / y), nil
		case BinMod:
			if y == 0 {
				return record.Null, fmt.Errorf("integer modulo by zero")
			}
			return record.Int(x % y), nil
		}
	}
	x, y := a.AsFloat(), b.AsFloat()
	switch op {
	case BinAdd:
		return record.Float(x + y), nil
	case BinSub:
		return record.Float(x - y), nil
	case BinMul:
		return record.Float(x * y), nil
	case BinDiv:
		if y == 0 {
			return record.Null, fmt.Errorf("float division by zero")
		}
		return record.Float(x / y), nil
	case BinMod:
		if y == 0 {
			return record.Null, fmt.Errorf("float modulo by zero")
		}
		return record.Float(float64(int64(x) % int64(y))), nil
	}
	return record.Null, fmt.Errorf("invalid arithmetic op")
}

func evalUn(op UnOp, a record.Value) (record.Value, error) {
	switch op {
	case UnNeg:
		if a.Kind() == record.KindInt {
			return record.Int(-a.AsInt()), nil
		}
		return record.Float(-a.AsFloat()), nil
	case UnNot:
		return record.Bool(!a.AsBool()), nil
	case UnAbs:
		if a.Kind() == record.KindInt {
			v := a.AsInt()
			if v < 0 {
				v = -v
			}
			return record.Int(v), nil
		}
		v := a.AsFloat()
		if v < 0 {
			v = -v
		}
		return record.Float(v), nil
	case UnLen:
		return record.Int(int64(len(a.AsString()))), nil
	default:
		return record.Null, fmt.Errorf("invalid unary op")
	}
}

// evalAgg aggregates one field over a group. Cells are read through the
// GroupSource, so a columnar group aggregates straight over its column
// arrays — no row is materialized for any aggregate. The semantics are the
// row path's, unchanged: an all-int sum stays integral, everything else
// coerces through AsFloat, min/max use Value.Compare, and an empty group
// yields Null for every aggregate but count.
func evalAgg(op AggOp, g GroupSource, field int) (record.Value, error) {
	n := g.Len()
	if op == AggCount {
		return record.Int(int64(n)), nil
	}
	if n == 0 {
		return record.Null, nil
	}
	allInt := true
	for i := 0; i < n; i++ {
		if g.Field(i, field).Kind() != record.KindInt {
			allInt = false
			break
		}
	}
	switch op {
	case AggSum, AggAvg:
		if allInt && op == AggSum {
			var s int64
			for i := 0; i < n; i++ {
				s += g.Field(i, field).AsInt()
			}
			return record.Int(s), nil
		}
		var s float64
		for i := 0; i < n; i++ {
			s += g.Field(i, field).AsFloat()
		}
		if op == AggAvg {
			return record.Float(s / float64(n)), nil
		}
		return record.Float(s), nil
	case AggMin, AggMax:
		best := g.Field(0, field)
		for i := 1; i < n; i++ {
			v := g.Field(i, field)
			if (op == AggMin && v.Compare(best) < 0) || (op == AggMax && v.Compare(best) > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return record.Null, fmt.Errorf("invalid aggregate op")
	}
}
