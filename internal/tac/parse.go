package tac

import (
	"fmt"
	"strconv"
	"strings"

	"blackboxflow/internal/record"
)

// Parse parses a textual TAC program. The syntax mirrors the paper's
// exposition format, e.g.:
//
//	# f1 replaces B with |B| (paper Section 3)
//	func map f1($ir) {
//	    $b := getfield $ir 1
//	    $or := copyrec $ir
//	    if $b >= 0 goto L1
//	    $b := neg $b
//	    setfield $or 1 $b
//	L1: emit $or
//	    return
//	}
//
// Commas are treated as whitespace. Labels may prefix an instruction or
// stand on their own line. Comparison operators may be symbolic (>=) or
// mnemonic (ge). A trailing `return` is implied if missing.
func Parse(src string) (*Program, error) {
	p := &Program{Funcs: map[string]*Func{}}
	var cur *Func
	var pendingLabel string

	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := stripComment(raw)
		line = strings.TrimSpace(strings.ReplaceAll(line, ",", " "))
		if line == "" {
			continue
		}
		lineNo := ln + 1

		switch {
		case strings.HasPrefix(line, "func "):
			if cur != nil {
				return nil, fmt.Errorf("line %d: nested func", lineNo)
			}
			f, err := parseFuncHeader(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			if _, dup := p.Funcs[f.Name]; dup {
				return nil, fmt.Errorf("line %d: duplicate function %q", lineNo, f.Name)
			}
			cur = f
			continue
		case line == "}":
			if cur == nil {
				return nil, fmt.Errorf("line %d: unmatched }", lineNo)
			}
			if pendingLabel != "" {
				cur.Body = append(cur.Body, &Instr{Label: pendingLabel, Op: OpReturn})
				pendingLabel = ""
			}
			finishFunc(cur)
			p.Funcs[cur.Name] = cur
			p.Order = append(p.Order, cur.Name)
			cur = nil
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("line %d: instruction outside func: %q", lineNo, line)
		}

		label := ""
		if i := labelPrefix(line); i >= 0 {
			label = strings.TrimSpace(line[:i])
			line = strings.TrimSpace(line[i+1:])
			if line == "" {
				if pendingLabel != "" {
					return nil, fmt.Errorf("line %d: two labels on empty instruction", lineNo)
				}
				pendingLabel = label
				continue
			}
		}
		if pendingLabel != "" {
			if label != "" {
				return nil, fmt.Errorf("line %d: instruction already has pending label %q", lineNo, pendingLabel)
			}
			label = pendingLabel
			pendingLabel = ""
		}

		in, err := parseInstr(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		in.Label = label
		cur.Body = append(cur.Body, in)
	}
	if cur != nil {
		return nil, fmt.Errorf("unterminated func %q", cur.Name)
	}
	if len(p.Funcs) == 0 {
		return nil, fmt.Errorf("no functions in program")
	}
	for _, name := range p.Order {
		f := p.Funcs[name]
		if err := Validate(f); err != nil {
			return nil, fmt.Errorf("func %s: %w", name, err)
		}
		f.prog = lower(f)
	}
	return p, nil
}

// MustParse is Parse that panics on error; intended for static program text
// in workloads and tests.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '#':
			if !inStr {
				return s[:i]
			}
		}
	}
	return s
}

// labelPrefix returns the index of the ':' ending a leading label, or -1.
// A label is an identifier (no spaces, no '$', no ':=') followed by ':'.
func labelPrefix(line string) int {
	i := strings.IndexByte(line, ':')
	if i <= 0 {
		return -1
	}
	if i+1 < len(line) && line[i+1] == '=' { // ":=" assignment
		return -1
	}
	head := line[:i]
	if strings.ContainsAny(head, " \t$\"") {
		return -1
	}
	return i
}

func parseFuncHeader(line string) (*Func, error) {
	// func <kind> <name>(<params>) {
	rest := strings.TrimPrefix(line, "func ")
	rest = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "{"))
	open := strings.IndexByte(rest, '(')
	close_ := strings.LastIndexByte(rest, ')')
	if open < 0 || close_ < open {
		return nil, fmt.Errorf("malformed func header %q", line)
	}
	head := strings.Fields(rest[:open])
	if len(head) != 2 {
		return nil, fmt.Errorf("func header needs kind and name: %q", line)
	}
	var kind Kind
	switch head[0] {
	case "map":
		kind = KindMap
	case "binary", "cross", "match":
		kind = KindBinary
	case "reduce":
		kind = KindReduce
	case "cogroup":
		kind = KindCoGroup
	default:
		return nil, fmt.Errorf("unknown func kind %q", head[0])
	}
	params := strings.Fields(rest[open+1 : close_])
	want := 1
	if kind == KindBinary || kind == KindCoGroup {
		want = 2
	}
	if len(params) != want {
		return nil, fmt.Errorf("%s func needs %d params, got %d", head[0], want, len(params))
	}
	for _, pn := range params {
		if !strings.HasPrefix(pn, "$") {
			return nil, fmt.Errorf("parameter %q must start with $", pn)
		}
	}
	return &Func{Name: head[1], Kind: kind, Params: params}, nil
}

var symbolicBin = map[string]BinOp{
	"+": BinAdd, "-": BinSub, "*": BinMul, "/": BinDiv, "%": BinMod,
	"&&": BinAnd, "||": BinOr,
	"==": BinEq, "!=": BinNe, "<": BinLt, "<=": BinLe, ">": BinGt, ">=": BinGe,
	".": BinConcat,
}

func lookupBin(tok string) (BinOp, bool) {
	if op, ok := symbolicBin[tok]; ok {
		return op, true
	}
	op, ok := binOps[tok]
	return op, ok
}

func parseInstr(line string) (*Instr, error) {
	toks, err := tokenize(line)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("empty instruction")
	}
	switch toks[0] {
	case "return":
		return &Instr{Op: OpReturn}, nil
	case "goto":
		if len(toks) != 2 {
			return nil, fmt.Errorf("goto needs a target")
		}
		return &Instr{Op: OpGoto, Target: toks[1]}, nil
	case "emit":
		if len(toks) != 2 || !strings.HasPrefix(toks[1], "$") {
			return nil, fmt.Errorf("emit needs a record variable")
		}
		return &Instr{Op: OpEmit, Rec: toks[1]}, nil
	case "setfield":
		if len(toks) != 4 {
			return nil, fmt.Errorf("setfield needs: setfield $rec <field> <src>")
		}
		n, err := strconv.Atoi(toks[2])
		if err != nil {
			return nil, fmt.Errorf("setfield field index %q must be a static integer", toks[2])
		}
		src, err := parseOperand(toks[3])
		if err != nil {
			return nil, err
		}
		return &Instr{Op: OpSetField, Rec: toks[1], Field: n, A: src}, nil
	case "if":
		return parseIf(toks)
	}

	// Assignment form: $dst := ...
	if len(toks) >= 3 && strings.HasPrefix(toks[0], "$") && toks[1] == ":=" {
		return parseAssign(toks[0], toks[2:])
	}
	return nil, fmt.Errorf("unrecognized instruction %q", line)
}

func parseIf(toks []string) (*Instr, error) {
	// if <a> goto L     |     if <a> <cmp> <b> goto L
	switch {
	case len(toks) == 4 && toks[2] == "goto":
		a, err := parseOperand(toks[1])
		if err != nil {
			return nil, err
		}
		return &Instr{Op: OpIf, A: a, Cmp: BinInvalid, Target: toks[3]}, nil
	case len(toks) == 6 && toks[4] == "goto":
		a, err := parseOperand(toks[1])
		if err != nil {
			return nil, err
		}
		cmp, ok := lookupBin(toks[2])
		if !ok || !isComparison(cmp) && cmp != BinAnd && cmp != BinOr && cmp != BinContains {
			return nil, fmt.Errorf("bad comparison %q", toks[2])
		}
		b, err := parseOperand(toks[3])
		if err != nil {
			return nil, err
		}
		return &Instr{Op: OpIf, A: a, Cmp: cmp, B: b, Target: toks[5]}, nil
	default:
		return nil, fmt.Errorf("malformed if")
	}
}

func isComparison(op BinOp) bool {
	switch op {
	case BinEq, BinNe, BinLt, BinLe, BinGt, BinGe:
		return true
	}
	return false
}

func parseAssign(dst string, rhs []string) (*Instr, error) {
	switch rhs[0] {
	case "const":
		if len(rhs) != 2 {
			return nil, fmt.Errorf("const needs one immediate")
		}
		v, err := parseImm(rhs[1])
		if err != nil {
			return nil, err
		}
		return &Instr{Op: OpConst, Dst: dst, A: Operand{Imm: v}}, nil
	case "getfield":
		if len(rhs) != 3 || !strings.HasPrefix(rhs[1], "$") {
			return nil, fmt.Errorf("getfield needs: getfield $rec <field>")
		}
		if n, err := strconv.Atoi(rhs[2]); err == nil {
			return &Instr{Op: OpGetField, Dst: dst, Rec: rhs[1], Field: n}, nil
		}
		if strings.HasPrefix(rhs[2], "$") {
			// Dynamic field access: index not statically computable.
			return &Instr{Op: OpGetField, Dst: dst, Rec: rhs[1], FieldVar: true, A: V(rhs[2])}, nil
		}
		return nil, fmt.Errorf("getfield field %q must be integer or variable", rhs[2])
	case "newrec":
		return &Instr{Op: OpNewRec, Dst: dst}, nil
	case "copyrec":
		if len(rhs) != 2 || !strings.HasPrefix(rhs[1], "$") {
			return nil, fmt.Errorf("copyrec needs a record variable")
		}
		return &Instr{Op: OpCopyRec, Dst: dst, Rec: rhs[1]}, nil
	case "concat":
		if len(rhs) != 3 || !strings.HasPrefix(rhs[1], "$") || !strings.HasPrefix(rhs[2], "$") {
			return nil, fmt.Errorf("concat needs two record variables")
		}
		return &Instr{Op: OpConcatRec, Dst: dst, Rec: rhs[1], Rec2: rhs[2]}, nil
	case "groupsize":
		if len(rhs) != 2 {
			return nil, fmt.Errorf("groupsize needs a group variable")
		}
		return &Instr{Op: OpGroupSize, Dst: dst, Group: rhs[1]}, nil
	case "groupget":
		if len(rhs) != 3 {
			return nil, fmt.Errorf("groupget needs: groupget $g <index>")
		}
		idx, err := parseOperand(rhs[2])
		if err != nil {
			return nil, err
		}
		return &Instr{Op: OpGroupGet, Dst: dst, Group: rhs[1], A: idx}, nil
	case "agg":
		if len(rhs) != 4 {
			return nil, fmt.Errorf("agg needs: agg <fn> $g <field>")
		}
		fn, ok := aggOps[rhs[1]]
		if !ok {
			return nil, fmt.Errorf("unknown aggregate %q", rhs[1])
		}
		n, err := strconv.Atoi(rhs[3])
		if err != nil {
			return nil, fmt.Errorf("agg field index %q must be a static integer", rhs[3])
		}
		return &Instr{Op: OpAgg, Dst: dst, Agg: fn, Group: rhs[2], Field: n}, nil
	}

	if op, ok := unOps[rhs[0]]; ok {
		if len(rhs) != 2 {
			return nil, fmt.Errorf("unary %s needs one operand", rhs[0])
		}
		a, err := parseOperand(rhs[1])
		if err != nil {
			return nil, err
		}
		return &Instr{Op: OpUn, Dst: dst, Un: op, A: a}, nil
	}

	// Infix binary: $d := <a> <op> <b>
	if len(rhs) == 3 {
		if op, ok := lookupBin(rhs[1]); ok {
			a, err := parseOperand(rhs[0])
			if err != nil {
				return nil, err
			}
			b, err := parseOperand(rhs[2])
			if err != nil {
				return nil, err
			}
			return &Instr{Op: OpBin, Dst: dst, Bin: op, A: a, B: b}, nil
		}
	}

	// Plain copy: $d := <operand>
	if len(rhs) == 1 {
		a, err := parseOperand(rhs[0])
		if err != nil {
			return nil, err
		}
		return &Instr{Op: OpAssign, Dst: dst, A: a}, nil
	}
	return nil, fmt.Errorf("unrecognized assignment rhs %q", strings.Join(rhs, " "))
}

func parseOperand(tok string) (Operand, error) {
	if strings.HasPrefix(tok, "$") {
		return V(tok), nil
	}
	v, err := parseImm(tok)
	if err != nil {
		return Operand{}, err
	}
	return Operand{Imm: v}, nil
}

func parseImm(tok string) (record.Value, error) {
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

// tokenize splits an instruction line into tokens, keeping quoted strings
// intact.
func tokenize(line string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(line) {
		c := line[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '"':
			j := i + 1
			for j < len(line) && line[j] != '"' {
				if line[j] == '\\' {
					j++
				}
				j++
			}
			if j >= len(line) {
				return nil, fmt.Errorf("unterminated string literal")
			}
			toks = append(toks, line[i:j+1])
			i = j + 1
		default:
			j := i
			for j < len(line) && line[j] != ' ' && line[j] != '\t' {
				j++
			}
			toks = append(toks, line[i:j])
			i = j
		}
	}
	return toks, nil
}

// finishFunc assigns instruction positions, builds the label index, and
// counts the variables.
func finishFunc(f *Func) {
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
	f.numSlots = len(varSlots(f))
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
