package tac

import (
	"fmt"
	"slices"
)

// Variable kinds. validate fixes one per variable, so the lowering keeps
// scalars, records and groups in separate slot arrays.
const (
	kindScalar uint8 = iota
	kindRecord
	kindGroup
)

var kindNames = [...]string{kindScalar: "scalar", kindRecord: "record", kindGroup: "group"}

// validate owns the rules of a well-formed UDF, whoever built its
// instructions — compiled PactScript or a direct tac.Instr literal:
//
//   - the function declares its kind's number of parameters, all distinct;
//   - every jump target is a defined label;
//   - group instructions appear only in key-at-a-time functions and
//     reference group parameters;
//   - input parameters are immutable (no setfield on a parameter) — the
//     record API of the paper only mutates output records created by one of
//     the constructors;
//   - each variable has one kind — scalar, record or group — a shallow,
//     flow-insensitive check.
//
// An error names the line of the offending instruction. validate returns
// the kind of every variable it met as a parameter, a definition or a
// record operand; any other variable is a scalar that is only ever read.
func validate(f *Func) (map[string]uint8, error) {
	if n := f.NumInputs(); len(f.Params) != n {
		return nil, fmt.Errorf("%s function needs %d parameter(s), has %d", f.Kind, n, len(f.Params))
	}
	param := kindRecord
	if f.Kind == KindReduce || f.Kind == KindCoGroup {
		param = kindGroup
	}
	kinds := map[string]uint8{}
	for _, p := range f.Params {
		if _, dup := kinds[p]; dup {
			return nil, fmt.Errorf("duplicate parameter %s", p)
		}
		kinds[p] = param
	}
	setKind := func(in *Instr, v string, k uint8) error {
		if prev, ok := kinds[v]; ok && prev != k {
			return fmt.Errorf("line %d: variable %s used both as %s and %s", in.Line, v, kindNames[prev], kindNames[k])
		}
		kinds[v] = k
		return nil
	}

	for _, in := range f.Body {
		switch in.Op {
		case OpGoto, OpIf:
			if _, ok := f.labelIndex[in.Target]; !ok {
				return nil, fmt.Errorf("line %d: undefined label %q", in.Line, in.Target)
			}
		case OpSetField:
			if slices.Contains(f.Params, in.Rec) {
				return nil, fmt.Errorf("line %d: setfield on input parameter %s (inputs are immutable)", in.Line, in.Rec)
			}
		case OpGroupSize, OpGroupGet, OpAgg:
			if param != kindGroup {
				return nil, fmt.Errorf("line %d: group instruction in %s function", in.Line, f.Kind)
			}
			if !slices.Contains(f.Params, in.Group) {
				return nil, fmt.Errorf("line %d: %s is not a group parameter", in.Line, in.Group)
			}
		}

		// Kind propagation: what an instruction defines, and the records it
		// reads or writes. A group used as a record conflicts here.
		var err error
		switch in.Op {
		case OpNewRec, OpCopyRec, OpConcatRec, OpGroupGet:
			err = setKind(in, in.Dst, kindRecord)
		case OpConst, OpAssign, OpBin, OpUn, OpGetField, OpGroupSize, OpAgg:
			err = setKind(in, in.Dst, kindScalar)
		}
		for _, r := range [...]string{in.Rec, in.Rec2} {
			if err == nil && r != "" {
				err = setKind(in, r, kindRecord)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return kinds, nil
}
