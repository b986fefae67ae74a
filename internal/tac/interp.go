package tac

import (
	"fmt"
	"strings"

	"blackboxflow/internal/record"
)

// DefaultStepLimit bounds the number of instructions a single UDF invocation
// may execute, guarding against non-terminating user code.
const DefaultStepLimit = 10_000_000

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

// Records adapts a materialized row group to GroupSource.
type Records []record.Record

func (g Records) Len() int                    { return len(g) }
func (g Records) At(i int) record.Record      { return g[i] }
func (g Records) Field(i, f int) record.Value { return g[i].Field(f) }

// Runner is the one way to call a UDF: it binds an interpreter to one
// function of one kind and runs the program Parse lowered that function to
// over the runner's own registers — reused across calls, so a steady-state
// call allocates nothing beyond the records the UDF itself builds — handing
// every output record to the emit sink of the call (the sink may retain it:
// the UDF never writes a record after emitting it). Map, Binary, Reduce and
// CoGroup are the four argument shapes of that one call; the kind checked at
// NewRunner says which of them the runner's owner uses. An error returned by
// emit aborts the call and is reported verbatim — distinguish it from a UDF
// error with AsEmitError. A Runner is not safe for concurrent use: one per
// goroutine.
type Runner struct {
	ip *Interp
	f  *Func
	rg regs
}

// NewRunner returns a reusable runner for f, which must be of the given
// kind and declare that kind's number of parameters.
func (ip *Interp) NewRunner(f *Func, kind Kind) (*Runner, error) {
	if f.Kind != kind {
		return nil, fmt.Errorf("tac: %s is not a %s function", f.Name, kind)
	}
	// Two parameters sharing a name would share one typed slot, leaving the
	// second argument nowhere to go.
	if n := f.NumInputs(); len(f.Params) != n || f.NumSlots() < n || n == 2 && f.Params[0] == f.Params[1] {
		return nil, fmt.Errorf("tac: %s function %s needs %d distinct parameters, has %v", kind, f.Name, n, f.Params)
	}
	return &Runner{ip: ip, f: f, rg: f.prog.newRegs()}, nil
}

// Map calls a map-kind UDF on one input record.
func (r *Runner) Map(in record.Record, emit func(record.Record) error) error {
	r.rg.reset(emit)
	r.rg.setRec(0, in, recShared)
	return r.run()
}

// Binary calls a binary (Cross/Match) UDF on a pair of records.
func (r *Runner) Binary(left, right record.Record, emit func(record.Record) error) error {
	r.rg.reset(emit)
	r.rg.setRec(0, left, recShared)
	r.rg.setRec(1, right, recShared)
	return r.run()
}

// Reduce calls a reduce-kind UDF on one key group. Aggregation opcodes read
// cells through the source, so a columnar group (record.ColGroup)
// aggregates without materializing its rows.
func (r *Runner) Reduce(group GroupSource, emit func(record.Record) error) error {
	r.rg.reset(emit)
	r.rg.groups[0] = group
	return r.run()
}

// CoGroup calls a cogroup-kind UDF on a pair of key groups (either may be
// empty).
func (r *Runner) CoGroup(left, right GroupSource, emit func(record.Record) error) error {
	r.rg.reset(emit)
	r.rg.groups[0], r.rg.groups[1] = left, right
	return r.run()
}

// run executes the lowered program from its first instruction, one step per
// executed instruction.
func (r *Runner) run() error {
	ops, limit := r.f.prog.ops, r.ip.stepLimit
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
