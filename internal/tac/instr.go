// Package tac implements a typed three-address code (TAC) intermediate
// representation for user-defined functions, mirroring the format used in
// Sections 3 and 5 of the paper ("Opening the Black Boxes in Data Flow
// Optimization", Hueske et al., VLDB 2012).
//
// UDFs enter as PactScript, which package frontend compiles to TAC
// instructions; Program.String renders them in the paper's notation. The
// compiled functions serve double duty: NewProgram lowers each function once
// to a slot-typed program that a Runner *executes* when a data flow runs,
// and package sca *analyzes* the same instructions to estimate read sets,
// write sets, and emit cardinalities.
// Analyzing the very artifact that executes guarantees that the derived
// properties are properties of the running code (the paper analyzes Java
// bytecode via Soot; see DESIGN.md for the substitution argument).
package tac

import (
	"fmt"
	"strconv"
	"strings"

	"blackboxflow/internal/record"
)

// Opcode identifies a TAC instruction.
type Opcode uint8

// The TAC instruction set. The record API mirrors the paper's: getField,
// setField, the copy constructor (implicit copy), the default constructor
// (implicit projection), the two-input concat constructor, and emit.
const (
	OpInvalid Opcode = iota

	// OpConst: Dst := const Imm.
	OpConst
	// OpAssign: Dst := A.
	OpAssign
	// OpBin: Dst := A <BinOp> B.
	OpBin
	// OpUn: Dst := <UnOp> A.
	OpUn

	// OpGetField: Dst := getfield Rec, FieldVar-or-Field. Reads a field of an
	// input (or any) record into a scalar temporary.
	OpGetField
	// OpSetField: setfield Rec, Field, A. Writes scalar A (or null, for an
	// explicit projection) into field Field of record Rec.
	OpSetField
	// OpNewRec: Dst := newrec. The default constructor: creates an empty
	// output record (implicit projection of all input attributes).
	OpNewRec
	// OpCopyRec: Dst := copyrec Rec. The copy constructor: copies all
	// attributes of Rec (implicit copy).
	OpCopyRec
	// OpConcatRec: Dst := concat RecA, RecB. The binary constructor: merges
	// two input records (implicit copy of both inputs). Under the
	// global-record layout the two inputs occupy disjoint attribute indices.
	OpConcatRec
	// OpEmit: emit Rec. Appends Rec to the UDF's output.
	OpEmit

	// OpGoto: unconditional jump to Target.
	OpGoto
	// OpIf: if A <CmpOp> B goto Target.
	OpIf
	// OpReturn: end of invocation.
	OpReturn

	// OpGroupSize: Dst := groupsize Group. Number of records in a key group
	// (key-at-a-time UDFs only).
	OpGroupSize
	// OpGroupGet: Dst := groupget Group, A. The A-th record of a key group.
	OpGroupGet
	// OpAgg: Dst := agg <AggOp> Group, Field. Built-in aggregate over one
	// field of every record in a key group.
	OpAgg
)

// BinOp is an arithmetic, logical, comparison, or string binary operator.
type BinOp uint8

// Binary operators.
const (
	BinInvalid BinOp = iota
	BinAdd
	BinSub
	BinMul
	BinDiv
	BinMod
	BinAnd
	BinOr
	BinEq
	BinNe
	BinLt
	BinLe
	BinGt
	BinGe
	BinConcat   // string concatenation
	BinContains // string containment (substring test)
)

var binNames = map[BinOp]string{
	BinAdd: "add", BinSub: "sub", BinMul: "mul", BinDiv: "div", BinMod: "mod",
	BinAnd: "and", BinOr: "or",
	BinEq: "eq", BinNe: "ne", BinLt: "lt", BinLe: "le", BinGt: "gt", BinGe: "ge",
	BinConcat: "concat", BinContains: "contains",
}

var binOps = invert(binNames)

// String returns the operator's mnemonic.
func (b BinOp) String() string { return binNames[b] }

// UnOp is a unary operator.
type UnOp uint8

// Unary operators.
const (
	UnInvalid UnOp = iota
	UnNeg
	UnNot
	UnAbs
	UnLen // string length
)

var unNames = map[UnOp]string{UnNeg: "neg", UnNot: "not", UnAbs: "abs", UnLen: "len"}
var unOps = invert(unNames)

// String returns the operator's mnemonic.
func (u UnOp) String() string { return unNames[u] }

// AggOp is a built-in aggregate for key-at-a-time UDFs.
type AggOp uint8

// Aggregate operators.
const (
	AggInvalid AggOp = iota
	AggSum
	AggCount
	AggMin
	AggMax
	AggAvg
)

var aggNames = map[AggOp]string{
	AggSum: "sum", AggCount: "count", AggMin: "min", AggMax: "max", AggAvg: "avg",
}
var aggOps = invert(aggNames)

// String returns the aggregate's mnemonic.
func (a AggOp) String() string { return aggNames[a] }

func invert[K comparable](m map[K]string) map[string]K {
	r := make(map[string]K, len(m))
	for k, v := range m {
		r[v] = k
	}
	return r
}

// Operand is a variable name (like "$t") or an immediate constant.
type Operand struct {
	Var string       // non-empty if the operand is a variable
	Imm record.Value // used when Var is empty
}

// IsVar reports whether the operand is a variable reference.
func (o Operand) IsVar() bool { return o.Var != "" }

// String renders the operand in TAC text.
func (o Operand) String() string {
	if o.IsVar() {
		return o.Var
	}
	return immText(o.Imm)
}

// immText renders an immediate as ParseImm reads it back: null by name, a
// float always with a fraction, exponent or name (so 3.0 stays a float) and
// a string Go-quoted.
func immText(v record.Value) string {
	switch v.Kind() {
	case record.KindInt:
		return strconv.FormatInt(v.AsInt(), 10)
	case record.KindFloat:
		s := strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
		if !strings.ContainsAny(s, ".eIN") { // not 1.5, 1e+21, ±Inf or NaN
			s += ".0"
		}
		return s
	case record.KindString:
		return strconv.Quote(v.AsString())
	case record.KindBool:
		return strconv.FormatBool(v.AsBool())
	}
	return "null"
}

// V makes a variable operand.
func V(name string) Operand { return Operand{Var: name} }

// Instr is a single three-address instruction.
type Instr struct {
	Label string // optional jump label, e.g. "L1" (or "14" in paper style)
	Op    Opcode

	Dst   string  // destination variable for value-producing ops
	A, B  Operand // operands
	Rec   string  // record variable for getfield/setfield/copyrec/emit (first record for concat)
	Rec2  string  // second record for concat
	Group string  // group variable for group ops

	Field    int  // static field index for getfield/setfield/agg
	FieldVar bool // true if the field index is not statically computable (dynamic access)

	Bin BinOp
	Un  UnOp
	Cmp BinOp // comparison for OpIf
	Agg AggOp

	Target string // jump target label

	Line int // source line of the PactScript statement it was compiled from, or 0

	pos int // instruction index within the function (set by NewProgram)
}

// Pos returns the instruction's index within its function body.
func (in *Instr) Pos() int { return in.pos }

// at attributes a run-time error to function fn and this instruction: the
// source line it was compiled from when that is known, else its index.
func (in *Instr) at(fn string) string {
	if in.Line > 0 {
		return fmt.Sprintf("tac: %s line %d", fn, in.Line)
	}
	return fmt.Sprintf("tac: %s instr %d", fn, in.pos)
}

// Defs returns the variable this instruction defines, or "".
func (in *Instr) Defs() string {
	switch in.Op {
	case OpConst, OpAssign, OpBin, OpUn, OpGetField, OpNewRec, OpCopyRec,
		OpConcatRec, OpGroupSize, OpGroupGet, OpAgg:
		return in.Dst
	}
	return ""
}

// Uses returns the variables this instruction uses.
func (in *Instr) Uses() []string {
	var u []string
	add := func(ops ...Operand) {
		for _, o := range ops {
			if o.IsVar() {
				u = append(u, o.Var)
			}
		}
	}
	switch in.Op {
	case OpAssign, OpUn:
		add(in.A)
	case OpBin, OpIf:
		add(in.A, in.B)
	case OpGetField:
		u = append(u, in.Rec)
		if in.FieldVar {
			add(in.A)
		}
	case OpSetField:
		u = append(u, in.Rec)
		add(in.A)
	case OpCopyRec:
		u = append(u, in.Rec)
	case OpConcatRec:
		u = append(u, in.Rec, in.Rec2)
	case OpEmit:
		u = append(u, in.Rec)
	case OpGroupSize:
		u = append(u, in.Group)
	case OpGroupGet:
		u = append(u, in.Group)
		add(in.A)
	case OpAgg:
		u = append(u, in.Group)
	}
	return u
}

// String renders the instruction in the textual TAC syntax. The rendering is
// faithful: this package's tests read it back as the same instruction.
func (in *Instr) String() string {
	var b strings.Builder
	if in.Label != "" {
		fmt.Fprintf(&b, "%s: ", in.Label)
	}
	switch in.Op {
	case OpConst:
		fmt.Fprintf(&b, "%s := const %s", in.Dst, in.A)
	case OpAssign:
		fmt.Fprintf(&b, "%s := %s", in.Dst, in.A)
	case OpBin:
		fmt.Fprintf(&b, "%s := %s %s %s", in.Dst, in.A, in.Bin, in.B)
	case OpUn:
		fmt.Fprintf(&b, "%s := %s %s", in.Dst, in.Un, in.A)
	case OpGetField:
		if in.FieldVar {
			fmt.Fprintf(&b, "%s := getfield %s %s", in.Dst, in.Rec, in.A)
		} else {
			fmt.Fprintf(&b, "%s := getfield %s %d", in.Dst, in.Rec, in.Field)
		}
	case OpSetField:
		fmt.Fprintf(&b, "setfield %s %d %s", in.Rec, in.Field, in.A)
	case OpNewRec:
		fmt.Fprintf(&b, "%s := newrec", in.Dst)
	case OpCopyRec:
		fmt.Fprintf(&b, "%s := copyrec %s", in.Dst, in.Rec)
	case OpConcatRec:
		fmt.Fprintf(&b, "%s := concat %s %s", in.Dst, in.Rec, in.Rec2)
	case OpEmit:
		fmt.Fprintf(&b, "emit %s", in.Rec)
	case OpGoto:
		fmt.Fprintf(&b, "goto %s", in.Target)
	case OpIf:
		if in.Cmp == BinInvalid { // truthiness test
			fmt.Fprintf(&b, "if %s goto %s", in.A, in.Target)
		} else {
			fmt.Fprintf(&b, "if %s %s %s goto %s", in.A, in.Cmp, in.B, in.Target)
		}
	case OpReturn:
		b.WriteString("return")
	case OpGroupSize:
		fmt.Fprintf(&b, "%s := groupsize %s", in.Dst, in.Group)
	case OpGroupGet:
		fmt.Fprintf(&b, "%s := groupget %s %s", in.Dst, in.Group, in.A)
	case OpAgg:
		fmt.Fprintf(&b, "%s := agg %s %s %d", in.Dst, in.Agg, in.Group, in.Field)
	default:
		b.WriteString("<invalid>")
	}
	return b.String()
}

// Kind describes a UDF's signature: which second-order function shape it
// plugs into (paper Section 2.3).
type Kind uint8

// UDF signature kinds. Map/Cross/Match UDFs are record-at-a-time; Reduce and
// CoGroup UDFs are key-at-a-time.
const (
	KindMap     Kind = iota // f(ir): one input record
	KindBinary              // f(ir1, ir2): a pair of records (Cross and Match)
	KindReduce              // f(g): one key group
	KindCoGroup             // f(g1, g2): a pair of key groups
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindMap:
		return "map"
	case KindBinary:
		return "binary"
	case KindReduce:
		return "reduce"
	case KindCoGroup:
		return "cogroup"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Func is a TAC user-defined function.
type Func struct {
	Name   string
	Kind   Kind
	Params []string // parameter variables: records (RAT) or groups (KAT)
	Body   []*Instr

	labelIndex map[string]int // label -> instruction position
	cfg        *CFG           // the analysis lowering and SCA read (set by NewProgram)
	prog       *program       // the lowered form Runners execute (set by NewProgram)
}

// NumInputs returns the number of data inputs (1 or 2).
func (f *Func) NumInputs() int {
	if f.Kind == KindBinary || f.Kind == KindCoGroup {
		return 2
	}
	return 1
}

// CFG returns the control and data flow NewProgram derived for f.
func (f *Func) CFG() *CFG { return f.cfg }

// String renders the function in the textual TAC syntax.
func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s %s(%s) {\n", f.Kind, f.Name, strings.Join(f.Params, ", "))
	for _, in := range f.Body {
		fmt.Fprintf(&b, "  %s\n", in)
	}
	b.WriteString("}\n")
	return b.String()
}

// Program is a collection of named TAC functions.
type Program struct {
	Funcs map[string]*Func
	Order []string // declaration order
}

// NewProgram builds a program from functions in declaration order. It is the
// one way a Program is made — frontend.Compile ends here — and
// it rejects duplicate names, appends the implied trailing return, indexes
// the labels, validates each function, derives its CFG and lowers it for
// Runners, taking the functions over.
func NewProgram(funcs []*Func) (*Program, error) {
	if len(funcs) == 0 {
		return nil, fmt.Errorf("no functions in program")
	}
	p := &Program{Funcs: make(map[string]*Func, len(funcs))}
	for _, f := range funcs {
		if _, dup := p.Funcs[f.Name]; dup {
			return nil, fmt.Errorf("duplicate function %q", f.Name)
		}
		if n := len(f.Body); n == 0 || f.Body[n-1].Op != OpReturn {
			f.Body = append(f.Body, &Instr{Op: OpReturn})
		}
		f.labelIndex = make(map[string]int)
		for i, in := range f.Body {
			in.pos = i
			if in.Label != "" {
				f.labelIndex[in.Label] = i
			}
		}
		kinds, err := validate(f)
		if err != nil {
			return nil, fmt.Errorf("func %s: %w", f.Name, err)
		}
		f.cfg = buildCFG(f)
		f.prog = lower(f.cfg, kinds)
		p.Funcs[f.Name] = f
		p.Order = append(p.Order, f.Name)
	}
	return p, nil
}

// Lookup returns the function with the given name.
func (p *Program) Lookup(name string) (*Func, bool) {
	f, ok := p.Funcs[name]
	return f, ok
}

// String renders all functions in declaration order.
func (p *Program) String() string {
	var b strings.Builder
	for i, name := range p.Order {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(p.Funcs[name].String())
	}
	return b.String()
}

var symbolicBin = map[string]BinOp{
	"+": BinAdd, "-": BinSub, "*": BinMul, "/": BinDiv, "%": BinMod,
	"&&": BinAnd, "||": BinOr,
	"==": BinEq, "!=": BinNe, "<": BinLt, "<=": BinLe, ">": BinGt, ">=": BinGe,
	".": BinConcat,
}

// LookupOp resolves an operator as TAC spells it — a binary operator by
// symbol or mnemonic ("<", "lt", "contains"), a unary operator or an
// aggregate by mnemonic ("neg", "sum") — to the instruction shape that
// applies it: Op and one of Bin, Un or Agg set.
func LookupOp(tok string) (Instr, bool) {
	if op, ok := symbolicBin[tok]; ok {
		return Instr{Op: OpBin, Bin: op}, true
	}
	if op, ok := binOps[tok]; ok {
		return Instr{Op: OpBin, Bin: op}, true
	}
	if op, ok := unOps[tok]; ok {
		return Instr{Op: OpUn, Un: op}, true
	}
	if op, ok := aggOps[tok]; ok {
		return Instr{Op: OpAgg, Agg: op}, true
	}
	return Instr{}, false
}

// ParseImm reads an immediate: null, true, false, a Go-quoted string, an
// int64, or else a float — so 3.0, and an integer past int64's range, are
// floats.
func ParseImm(tok string) (record.Value, error) {
	switch tok {
	case "null":
		return record.Null, nil
	case "true":
		return record.Bool(true), nil
	case "false":
		return record.Bool(false), nil
	}
	if strings.HasPrefix(tok, "\"") && strings.HasSuffix(tok, "\"") && len(tok) >= 2 {
		s, err := strconv.Unquote(tok)
		if err != nil {
			return record.Null, fmt.Errorf("bad string literal %s: %w", tok, err)
		}
		return record.String(s), nil
	}
	if i, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return record.Int(i), nil
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		return record.Float(f), nil
	}
	return record.Null, fmt.Errorf("bad immediate %q", tok)
}
