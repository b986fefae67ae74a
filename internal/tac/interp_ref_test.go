package tac

import (
	"fmt"

	"blackboxflow/internal/record"
)

// This file is the reference interpreter: the instruction loop that ran
// every UDF call before Parse lowered functions to typed programs, frozen
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
	grp  GroupSource
}

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

// refRunner is the Runner of the reference interpreter: one function, one
// reused frame, the same four call shapes.
type refRunner struct {
	ip    *Interp
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

func (ip *Interp) newRefRunner(f *Func, kind Kind) (*refRunner, error) {
	if _, err := ip.NewRunner(f, kind); err != nil {
		return nil, err
	}
	n := f.NumSlots()
	return &refRunner{ip: ip, f: f, fr: frame{vals: make([]rtVal, n), set: make([]bool, n)}, slots: refSlotsOf(f)}, nil
}

// call runs the function on up to two arguments, clearing what the previous
// call left in the frame first (record and group references included).
func (r *refRunner) call(emit func(record.Record) error, args ...rtVal) error {
	clear(r.fr.vals)
	clear(r.fr.set)
	for slot, a := range args {
		r.fr.def(slot, a)
	}
	return r.ip.runEmit(r.f, r.slots, &r.fr, emit)
}

func (r *refRunner) Map(in record.Record, emit func(record.Record) error) error {
	return r.call(emit, rtVal{kind: rtRecord, rec: in})
}

func (r *refRunner) Binary(left, right record.Record, emit func(record.Record) error) error {
	return r.call(emit, rtVal{kind: rtRecord, rec: left}, rtVal{kind: rtRecord, rec: right})
}

func (r *refRunner) Reduce(group GroupSource, emit func(record.Record) error) error {
	return r.call(emit, rtVal{kind: rtGroup, grp: group})
}

func (r *refRunner) CoGroup(left, right GroupSource, emit func(record.Record) error) error {
	return r.call(emit, rtVal{kind: rtGroup, grp: left}, rtVal{kind: rtGroup, grp: right})
}

// runEmit executes f, passing every emitted record (already cloned) to emit.
func (ip *Interp) runEmit(f *Func, sl []refSlots, fr *frame, emit func(record.Record) error) error {
	pc := 0
	steps := 0
	body := f.Body
	for pc < len(body) {
		steps++
		if steps > ip.stepLimit {
			return fmt.Errorf("tac: %s exceeded step limit %d", f.Name, ip.stepLimit)
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
				return fmt.Errorf("tac: %s instr %d: %w", f.Name, in.pos, err)
			}
			fr.def(s.dst, rtVal{kind: rtScalar, s: v})

		case OpUn:
			a, err := fr.scalar(in.A, s.a, in)
			if err != nil {
				return err
			}
			v, err := evalUn(in.Un, a)
			if err != nil {
				return fmt.Errorf("tac: %s instr %d: %w", f.Name, in.pos, err)
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
				return fmt.Errorf("tac: %s instr %d: %s is not a record", f.Name, in.pos, in.Rec)
			}
			v, err := fr.scalar(in.A, s.a, in)
			if err != nil {
				return err
			}
			rv := fr.vals[s.rec]
			if in.Field >= len(rv.rec) {
				rv.rec = rv.rec.WithField(in.Field, v)
			} else {
				rv.rec = rv.rec.Clone()
				rv.rec.SetField(in.Field, v)
			}
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
				return fmt.Errorf("tac: %s instr %d: %w", f.Name, in.pos, err)
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
			fr.def(s.dst, rtVal{kind: rtScalar, s: record.Int(int64(g.Len()))})

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
			if i < 0 || i >= g.Len() {
				return fmt.Errorf("tac: %s instr %d: groupget index %d out of range [0,%d)", f.Name, in.pos, i, g.Len())
			}
			fr.def(s.dst, rtVal{kind: rtRecord, rec: g.At(i)})

		case OpAgg:
			g, err := fr.grp(s.group, in.Group, in)
			if err != nil {
				return err
			}
			v, err := evalAgg(in.Agg, g, in.Field)
			if err != nil {
				return fmt.Errorf("tac: %s instr %d: %w", f.Name, in.pos, err)
			}
			fr.def(s.dst, rtVal{kind: rtScalar, s: v})

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
		return false, err
	}
	return v.AsBool(), nil
}
