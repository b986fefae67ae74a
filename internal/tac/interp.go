package tac

import (
	"fmt"
	"strings"

	"blackboxflow/internal/record"
)

// DefaultStepLimit bounds the number of instructions a single UDF invocation
// may execute, guarding against non-terminating user code.
const DefaultStepLimit = 10_000_000

// Runner is the one way to call a UDF: it binds one function of one kind
// and runs the program NewProgram lowered that function to, at most
// DefaultStepLimit instructions per call, over the runner's own registers
// — reused across calls, so a steady-state call allocates nothing — handing
// every output record to the emit sink of the call (the sink may retain it:
// the UDF never writes a record after emitting it). The records a call
// builds are carved from a chunk of Values the runner owns, one chunk
// allocation serving many calls; a retained record keeps its chunk (at most
// 6 KiB) alive. Map, Binary, Reduce and CoGroup are the four
// argument shapes of that one call; the kind checked at NewRunner says
// which of them the runner's owner uses. An error returned by emit aborts
// the call and is reported verbatim — distinguish it from a UDF error with
// AsEmitError. A Runner is not safe for concurrent use: one per goroutine.
//
// A call never writes its inputs, with one exception: a Binary parameter
// the caller hands over (see Owned) belongs to the call, which may emit it
// uncopied or build a concat or copy result in its storage. Map, Reduce and
// CoGroup inputs and group elements are always shared; the engine hands
// over only a Match's records at their last use, never a Cross's, and
// records passed between fused Maps stay shared. Between calls the runner
// keeps the last call's record and group references (only what guards
// every read is reset), so it pins at most one call's records until its
// next call.
type Runner struct {
	f     *Func
	limit int // instructions per call
	rg    regs
}

// Owned says which parameters of a Binary call the caller hands over: no
// one reads or writes such a record after the call, so the call may reuse
// its storage, and any room it has past its length is Null. Zero hands
// over nothing.
type Owned uint8

// The parameters a Binary call may be handed.
const (
	OwnLeft Owned = 1 << iota
	OwnRight
)

// NewRunner returns a reusable runner for f, which must be of the given
// kind. NewProgram has already checked f's parameters against its kind.
func NewRunner(f *Func, kind Kind) (*Runner, error) {
	if f.Kind != kind {
		return nil, fmt.Errorf("tac: %s is not a %s function", f.Name, kind)
	}
	return &Runner{f: f, limit: DefaultStepLimit, rg: f.prog.newRegs()}, nil
}

// Reserve gives every record the runner builds room for at least width
// fields, Null past its length, so that a later call handed the record can
// widen it in place. The engine reserves the plan's record width for the
// records it hands to a Match.
func (r *Runner) Reserve(width int) { r.rg.room = width }

// Map calls a map-kind UDF on one input record.
func (r *Runner) Map(in record.Record, emit func(record.Record) error) error {
	r.rg.reset(emit)
	r.rg.setRec(0, in, recShared)
	return r.run()
}

// Binary calls a binary (Cross/Match) UDF on a pair of records, owning the
// ones own hands over.
func (r *Runner) Binary(left, right record.Record, own Owned, emit func(record.Record) error) error {
	r.rg.reset(emit)
	r.rg.setRec(0, left, own.state(OwnLeft))
	r.rg.setRec(1, right, own.state(OwnRight))
	return r.run()
}

// state is the slot state of the parameter p names.
func (own Owned) state(p Owned) uint8 {
	if own&p != 0 {
		return recOwned
	}
	return recShared
}

// Reduce calls a reduce-kind UDF on one key group.
func (r *Runner) Reduce(group []record.Record, emit func(record.Record) error) error {
	r.rg.reset(emit)
	r.rg.groups[0] = group
	return r.run()
}

// CoGroup calls a cogroup-kind UDF on a pair of key groups (either may be
// empty).
func (r *Runner) CoGroup(left, right []record.Record, emit func(record.Record) error) error {
	r.rg.reset(emit)
	r.rg.groups[0], r.rg.groups[1] = left, right
	return r.run()
}

// run executes the lowered program from its first instruction, one step per
// executed instruction.
func (r *Runner) run() error {
	ops, limit := r.f.prog.ops, r.limit
	var err error
	for pc, steps := 0, 1; pc < len(ops); steps++ {
		if steps > limit {
			return fmt.Errorf("tac: %s exceeded step limit %d", r.f.Name, limit)
		}
		o := &ops[pc]
		if pc, err = o.exec(r, o); err != nil {
			return err
		}
	}
	return nil
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
		if int64(y) == 0 { // a divisor in (-1, 1) truncates to zero too
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

// evalAgg aggregates one field over a group: an all-int sum stays
// integral, everything else coerces through AsFloat, min/max use
// Value.Compare, and an empty group yields Null for every aggregate but
// count.
func evalAgg(op AggOp, g []record.Record, field int) (record.Value, error) {
	if op == AggCount {
		return record.Int(int64(len(g))), nil
	}
	if len(g) == 0 {
		return record.Null, nil
	}
	allInt := true
	for _, r := range g {
		if r.Field(field).Kind() != record.KindInt {
			allInt = false
			break
		}
	}
	switch op {
	case AggSum, AggAvg:
		if allInt && op == AggSum {
			var s int64
			for _, r := range g {
				s += r.Field(field).AsInt()
			}
			return record.Int(s), nil
		}
		var s float64
		for _, r := range g {
			s += r.Field(field).AsFloat()
		}
		if op == AggAvg {
			return record.Float(s / float64(len(g))), nil
		}
		return record.Float(s), nil
	case AggMin, AggMax:
		best := g[0].Field(field)
		for _, r := range g[1:] {
			v := r.Field(field)
			if (op == AggMin && v.Compare(best) < 0) || (op == AggMax && v.Compare(best) > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return record.Null, fmt.Errorf("invalid aggregate op")
	}
}
