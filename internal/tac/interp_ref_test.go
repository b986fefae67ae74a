package tac

import (
	"fmt"

	"blackboxflow/internal/record"
)

// This file is the reference interpreter: the instruction loop that ran
// every UDF call before NewProgram lowered functions to typed programs, frozen
// as it was. It walks f.Body through one untyped frame and checks every
// operand at run time. The lowered-vs-reference differential
// (differential_test.go) compares the Runner against it on every workload
// UDF, every program in this package's tests and the fuzz corpus. It shares
// only evalBin, evalUn and evalAgg with the lowered code — they are the one
// definition of value semantics. Do not "simplify" it onto the lowering.

// rtKind tags a runtime value.
type rtKind uint8

const (
	rtScalar rtKind = iota
	rtRecord
	rtGroup
)

// rtVal is a runtime value: a scalar, a (mutable) record, or a key group.
type rtVal struct {
	kind rtKind
	s    record.Value
	rec  record.Record
	grp  []record.Record
}

// frame is one invocation's variable store, indexed by the slots the
// parser assigned. set[i] reports whether slot i holds a defined value.
type frame struct {
	fn   string // the function's name, for errors
	vals []rtVal
	set  []bool
}

func (fr *frame) def(slot int, v rtVal) {
	fr.vals[slot] = v
	fr.set[slot] = true
}

// refRunner is the Runner of the reference interpreter: one function, one
// reused frame, the same four call shapes.
type refRunner struct {
	limit int
	f     *Func
	fr    frame
	slots []refSlots
}

// refSlots is one instruction's variable slots (-1 when unused) and
// resolved jump target, as the parser used to store them on the Instr.
type refSlots struct {
	dst, a, b, rec, rec2, group, target int
}

func refSlotsOf(f *Func) []refSlots {
	vars := varSlots(f)
	slotOf := func(v string) int {
		if s, ok := vars[v]; ok {
			return s
		}
		return -1
	}
	sl := make([]refSlots, len(f.Body))
	for i, in := range f.Body {
		sl[i] = refSlots{slotOf(in.Dst), slotOf(in.A.Var), slotOf(in.B.Var), slotOf(in.Rec), slotOf(in.Rec2), slotOf(in.Group), -1}
		if t, ok := f.labelIndex[in.Target]; ok && in.Target != "" {
			sl[i].target = t
		}
	}
	return sl
}

func newRefRunner(f *Func, kind Kind, limit int) (*refRunner, error) {
	if _, err := NewRunner(f, kind); err != nil {
		return nil, err
	}
	n := len(varSlots(f))
	return &refRunner{limit: limit, f: f, fr: frame{fn: f.Name, vals: make([]rtVal, n), set: make([]bool, n)}, slots: refSlotsOf(f)}, nil
}

// call runs the function on up to two arguments, clearing what the previous
// call left in the frame first (record and group references included).
func (r *refRunner) call(emit func(record.Record) error, args ...rtVal) error {
	clear(r.fr.vals)
	clear(r.fr.set)
	for slot, a := range args {
		r.fr.def(slot, a)
	}
	return runEmit(r.f, r.limit, r.slots, &r.fr, emit)
}

func (r *refRunner) Map(in record.Record, emit func(record.Record) error) error {
	return r.call(emit, rtVal{kind: rtRecord, rec: in})
}

func (r *refRunner) Binary(left, right record.Record, emit func(record.Record) error) error {
	return r.call(emit, rtVal{kind: rtRecord, rec: left}, rtVal{kind: rtRecord, rec: right})
}

func (r *refRunner) Reduce(group []record.Record, emit func(record.Record) error) error {
	return r.call(emit, rtVal{kind: rtGroup, grp: group})
}

func (r *refRunner) CoGroup(left, right []record.Record, emit func(record.Record) error) error {
	return r.call(emit, rtVal{kind: rtGroup, grp: left}, rtVal{kind: rtGroup, grp: right})
}

// runEmit executes f, passing every emitted record (already cloned) to emit.
func runEmit(f *Func, limit int, sl []refSlots, fr *frame, emit func(record.Record) error) error {
	pc := 0
	steps := 0
	body := f.Body
	for pc < len(body) {
		steps++
		if steps > limit {
			return fmt.Errorf("tac: %s exceeded step limit %d", f.Name, limit)
		}
		in, s := body[pc], sl[pc]
		switch in.Op {
		case OpReturn:
			return nil

		case OpConst:
			fr.def(s.dst, rtVal{kind: rtScalar, s: in.A.Imm})

		case OpAssign:
			v, err := fr.scalar(in.A, s.a, in)
			if err != nil {
				return err
			}
			fr.def(s.dst, rtVal{kind: rtScalar, s: v})

		case OpBin:
			a, err := fr.scalar(in.A, s.a, in)
			if err != nil {
				return err
			}
			b, err := fr.scalar(in.B, s.b, in)
			if err != nil {
				return err
			}
			v, err := evalBin(in.Bin, a, b)
			if err != nil {
				return fmt.Errorf("%s: %w", in.at(f.Name), err)
			}
			fr.def(s.dst, rtVal{kind: rtScalar, s: v})

		case OpUn:
			a, err := fr.scalar(in.A, s.a, in)
			if err != nil {
				return err
			}
			v, err := evalUn(in.Un, a)
			if err != nil {
				return fmt.Errorf("%s: %w", in.at(f.Name), err)
			}
			fr.def(s.dst, rtVal{kind: rtScalar, s: v})

		case OpGetField:
			r, err := fr.rec(s.rec, in.Rec, in)
			if err != nil {
				return err
			}
			idx := in.Field
			if in.FieldVar {
				iv, err := fr.scalar(in.A, s.a, in)
				if err != nil {
					return err
				}
				idx = int(iv.AsInt())
			}
			fr.def(s.dst, rtVal{kind: rtScalar, s: r.Field(idx)})

		case OpSetField:
			if !fr.set[s.rec] || fr.vals[s.rec].kind != rtRecord {
				return fmt.Errorf("%s: %s is not a record", in.at(f.Name), in.Rec)
			}
			v, err := fr.scalar(in.A, s.a, in)
			if err != nil {
				return err
			}
			rv := fr.vals[s.rec]
			rec := make(record.Record, max(len(rv.rec), in.Field+1))
			copy(rec, rv.rec)
			rec.SetField(in.Field, v)
			rv.rec = rec
			fr.vals[s.rec] = rv

		case OpNewRec:
			fr.def(s.dst, rtVal{kind: rtRecord, rec: record.Record{}})

		case OpCopyRec:
			r, err := fr.rec(s.rec, in.Rec, in)
			if err != nil {
				return err
			}
			fr.def(s.dst, rtVal{kind: rtRecord, rec: r.Clone()})

		case OpConcatRec:
			r1, err := fr.rec(s.rec, in.Rec, in)
			if err != nil {
				return err
			}
			r2, err := fr.rec(s.rec2, in.Rec2, in)
			if err != nil {
				return err
			}
			fr.def(s.dst, rtVal{kind: rtRecord, rec: r1.Merge(r2)})

		case OpEmit:
			r, err := fr.rec(s.rec, in.Rec, in)
			if err != nil {
				return err
			}
			if err := emit(r.Clone()); err != nil {
				return emitError{err: err}
			}

		case OpGoto:
			pc = s.target
			continue

		case OpIf:
			take, err := fr.cond(in, s)
			if err != nil {
				return err
			}
			if take {
				pc = s.target
				continue
			}

		case OpGroupSize:
			g, err := fr.grp(s.group, in.Group, in)
			if err != nil {
				return err
			}
			fr.def(s.dst, rtVal{kind: rtScalar, s: record.Int(int64(len(g)))})

		case OpGroupGet:
			g, err := fr.grp(s.group, in.Group, in)
			if err != nil {
				return err
			}
			iv, err := fr.scalar(in.A, s.a, in)
			if err != nil {
				return err
			}
			i := int(iv.AsInt())
			if i < 0 || i >= len(g) {
				return fmt.Errorf("%s: groupget index %d out of range [0,%d)", in.at(f.Name), i, len(g))
			}
			fr.def(s.dst, rtVal{kind: rtRecord, rec: g[i]})

		case OpAgg:
			g, err := fr.grp(s.group, in.Group, in)
			if err != nil {
				return err
			}
			v, err := evalAgg(in.Agg, g, in.Field)
			if err != nil {
				return fmt.Errorf("%s: %w", in.at(f.Name), err)
			}
			fr.def(s.dst, rtVal{kind: rtScalar, s: v})

		default:
			return fmt.Errorf("%s: invalid opcode", in.at(f.Name))
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
		return record.Null, fmt.Errorf("%s: use of undefined variable %s", in.at(fr.fn), o.Var)
	}
	v := fr.vals[slot]
	if v.kind != rtScalar {
		return record.Null, fmt.Errorf("%s: %s is not a scalar", in.at(fr.fn), o.Var)
	}
	return v.s, nil
}

func (fr *frame) rec(slot int, name string, in *Instr) (record.Record, error) {
	if slot < 0 || !fr.set[slot] {
		return nil, fmt.Errorf("%s: use of undefined record %s", in.at(fr.fn), name)
	}
	v := fr.vals[slot]
	if v.kind != rtRecord {
		return nil, fmt.Errorf("%s: %s is not a record", in.at(fr.fn), name)
	}
	return v.rec, nil
}

func (fr *frame) grp(slot int, name string, in *Instr) ([]record.Record, error) {
	if slot < 0 || !fr.set[slot] {
		return nil, fmt.Errorf("%s: use of undefined group %s", in.at(fr.fn), name)
	}
	v := fr.vals[slot]
	if v.kind != rtGroup {
		return nil, fmt.Errorf("%s: %s is not a group", in.at(fr.fn), name)
	}
	return v.grp, nil
}

func (fr *frame) cond(in *Instr, s refSlots) (bool, error) {
	a, err := fr.scalar(in.A, s.a, in)
	if err != nil {
		return false, err
	}
	if in.Cmp == BinInvalid { // truthiness test: if $a goto L
		return a.AsBool(), nil
	}
	b, err := fr.scalar(in.B, s.b, in)
	if err != nil {
		return false, err
	}
	v, err := evalBin(in.Cmp, a, b)
	if err != nil {
		return false, fmt.Errorf("%s: %w", in.at(fr.fn), err)
	}
	return v.AsBool(), nil
}
