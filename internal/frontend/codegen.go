package frontend

import (
	"errors"
	"fmt"
	"strconv"

	"blackboxflow/internal/tac"
)

// codegen lowers one FuncDecl to a tac.Func. Every instruction carries the
// line of the statement it came from, so tac.NewProgram — whose validation
// owns the rules of a well-formed UDF: variable kinds, immutable inputs,
// group receivers, parameter arity — reports them with source lines.
type codegen struct {
	body    []*tac.Instr
	pending []string // labels waiting to attach to the next instruction
	tmpN    int
	labN    int
	line    int // of the statement being lowered
	params  map[string]bool
}

func (g *codegen) tmp() string {
	g.tmpN++
	return fmt.Sprintf("$t%d", g.tmpN)
}

func (g *codegen) label(hint string) string {
	g.labN++
	return fmt.Sprintf("%s%d", hint, g.labN)
}

// emit appends one instruction, attaching pending labels. Extra pending
// labels become goto-trampolines onto the last, which labels in.
func (g *codegen) emit(in *tac.Instr) {
	if len(g.pending) > 0 {
		last := g.pending[len(g.pending)-1]
		for _, l := range g.pending[:len(g.pending)-1] {
			g.body = append(g.body, &tac.Instr{Label: l, Op: tac.OpGoto, Target: last, Line: g.line})
		}
		in.Label = last
		g.pending = g.pending[:0]
	}
	in.Line = g.line
	g.body = append(g.body, in)
}

// place marks a label position; it binds to the next emitted instruction.
func (g *codegen) place(label string) { g.pending = append(g.pending, label) }

// compileFunc lowers a single UDF.
func compileFunc(fn *FuncDecl) (*tac.Func, error) {
	g := &codegen{params: map[string]bool{}, line: fn.Line}
	f := &tac.Func{Name: fn.Name, Kind: fn.Kind}
	for _, p := range fn.Params {
		g.params[p] = true
		f.Params = append(f.Params, "$"+p)
	}
	if err := g.stmts(fn.Body); err != nil {
		return nil, fmt.Errorf("func %s: %w", fn.Name, err)
	}
	g.emit(&tac.Instr{Op: tac.OpReturn})
	f.Body = g.body
	return f, nil
}

func (g *codegen) stmts(ss []Stmt) error {
	for _, s := range ss {
		if err := g.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *codegen) stmt(s Stmt) error {
	switch st := s.(type) {
	case *AssignStmt:
		g.line = st.Line
		return g.assign(st)
	case *SetFieldStmt:
		g.line = st.Line
		in := &tac.Instr{Op: tac.OpSetField, Rec: "$" + st.Rec, Field: st.Index} // A is null for rec[i] = null
		if st.Expr != nil {
			op, err := g.expr(st.Expr)
			if err != nil {
				return err
			}
			in.A = op
		}
		g.emit(in)
		return nil
	case *EmitStmt:
		g.line = st.Line
		g.emit(&tac.Instr{Op: tac.OpEmit, Rec: "$" + st.Rec})
		return nil
	case *ReturnStmt:
		g.line = st.Line
		g.emit(&tac.Instr{Op: tac.OpReturn})
		return nil
	case *IfStmt:
		g.line = st.Line
		lThen := g.label("T")
		lElse := g.label("E")
		lEnd := lElse
		if len(st.Else) > 0 {
			lEnd = g.label("D")
		}
		if err := g.cond(st.Cond, lThen, lElse); err != nil {
			return err
		}
		g.place(lThen)
		if err := g.stmts(st.Then); err != nil {
			return err
		}
		if len(st.Else) > 0 {
			g.emit(&tac.Instr{Op: tac.OpGoto, Target: lEnd})
			g.place(lElse)
			if err := g.stmts(st.Else); err != nil {
				return err
			}
		}
		g.place(lEnd)
		return nil
	case *WhileStmt:
		g.line = st.Line
		lCond := g.label("W")
		lBody := g.label("B")
		lEnd := g.label("X")
		g.place(lCond)
		if err := g.cond(st.Cond, lBody, lEnd); err != nil {
			return err
		}
		g.place(lBody)
		if err := g.stmts(st.Body); err != nil {
			return err
		}
		g.emit(&tac.Instr{Op: tac.OpGoto, Target: lCond})
		g.place(lEnd)
		return nil
	default:
		return fmt.Errorf("unknown statement %T", s)
	}
}

// assign lowers `name := expr`, binding record-producing expressions
// directly to the target variable.
func (g *codegen) assign(st *AssignStmt) error {
	if g.params[st.Name] {
		return fmt.Errorf("line %d: cannot assign to parameter %q", st.Line, st.Name)
	}
	dst := "$" + st.Name
	if call, ok := st.Expr.(*CallExpr); ok {
		switch call.Fn {
		case "copy":
			if len(call.Args) != 1 {
				return fmt.Errorf("line %d: copy() takes one record", call.Line)
			}
			rec, err := recordArg(call.Args[0], call.Line)
			if err != nil {
				return err
			}
			g.emit(&tac.Instr{Op: tac.OpCopyRec, Dst: dst, Rec: rec})
			return nil
		case "concat":
			if len(call.Args) != 2 {
				return fmt.Errorf("line %d: concat() takes two records", call.Line)
			}
			a, err := recordArg(call.Args[0], call.Line)
			if err != nil {
				return err
			}
			b, err := recordArg(call.Args[1], call.Line)
			if err != nil {
				return err
			}
			g.emit(&tac.Instr{Op: tac.OpConcatRec, Dst: dst, Rec: a, Rec2: b})
			return nil
		case "new":
			if len(call.Args) != 0 {
				return fmt.Errorf("line %d: new() takes no arguments", call.Line)
			}
			g.emit(&tac.Instr{Op: tac.OpNewRec, Dst: dst})
			return nil
		}
	}
	return g.exprInto(dst, st.Expr)
}

// recordArg resolves an expression that must denote a record variable.
func recordArg(e Expr, line int) (string, error) {
	id, ok := e.(*Ident)
	if !ok {
		return "", fmt.Errorf("line %d: record argument must be a variable", line)
	}
	return "$" + id.Name, nil
}

// exprInto lowers e and ensures the result lands in dst.
func (g *codegen) exprInto(dst string, e Expr) error {
	switch x := e.(type) {
	case *Lit:
		imm, err := g.expr(x)
		if err != nil {
			return err
		}
		g.emit(&tac.Instr{Op: tac.OpConst, Dst: dst, A: imm})
		return nil
	case *Ident:
		g.emit(&tac.Instr{Op: tac.OpAssign, Dst: dst, A: tac.V("$" + x.Name)})
		return nil
	case *FieldExpr:
		return g.getField(dst, x)
	case *UnExpr:
		op, err := g.expr(x.X)
		if err != nil {
			return err
		}
		in, _ := tac.LookupOp(map[string]string{"-": "neg", "!": "not"}[x.Op])
		in.Dst, in.A = dst, op
		g.emit(&in)
		return nil
	case *BinExpr:
		a, err := g.expr(x.L)
		if err != nil {
			return err
		}
		b, err := g.expr(x.R)
		if err != nil {
			return err
		}
		in, _ := tac.LookupOp(x.Op)
		in.Dst, in.A, in.B = dst, a, b
		g.emit(&in)
		return nil
	case *CallExpr:
		return g.callInto(dst, x)
	default:
		return fmt.Errorf("unknown expression %T", e)
	}
}

// expr lowers e to an operand: a literal's immediate or a (possibly fresh)
// variable.
func (g *codegen) expr(e Expr) (tac.Operand, error) {
	switch x := e.(type) {
	case *Lit:
		v, err := tac.ParseImm(x.Text)
		if err != nil {
			return tac.Operand{}, fmt.Errorf("line %d: %w", x.Line, err)
		}
		return tac.Operand{Imm: v}, nil
	case *Ident:
		return tac.V("$" + x.Name), nil
	default:
		t := g.tmp()
		if err := g.exprInto(t, e); err != nil {
			return tac.Operand{}, err
		}
		return tac.V(t), nil
	}
}

// inVar returns op as a variable, loading an immediate into a fresh
// temporary.
func (g *codegen) inVar(op tac.Operand) tac.Operand {
	if op.IsVar() {
		return op
	}
	t := g.tmp()
	g.emit(&tac.Instr{Op: tac.OpConst, Dst: t, A: op})
	return tac.V(t)
}

// fieldIndex reads e as a literal field index: ok is false for anything
// but an integer literal, and one past int's range is an error.
func fieldIndex(e Expr, line int) (n int, ok bool, err error) {
	lit, isLit := e.(*Lit)
	if !isLit {
		return 0, false, nil
	}
	n, err = strconv.Atoi(lit.Text)
	if errors.Is(err, strconv.ErrRange) {
		return 0, false, fmt.Errorf("line %d: field index %s out of range", line, lit.Text)
	}
	return n, err == nil, nil
}

// getField lowers rec[idx]: constant indices become static accesses,
// anything else a dynamic access (which static analysis treats
// conservatively — exactly the paper's compile-time-knowledge boundary).
func (g *codegen) getField(dst string, x *FieldExpr) error {
	rec := "$" + x.Rec
	n, static, err := fieldIndex(x.Index, x.Line)
	if err != nil {
		return err
	}
	if static {
		g.emit(&tac.Instr{Op: tac.OpGetField, Dst: dst, Rec: rec, Field: n})
		return nil
	}
	idx, err := g.expr(x.Index)
	if err != nil {
		return err
	}
	g.emit(&tac.Instr{Op: tac.OpGetField, Dst: dst, Rec: rec, FieldVar: true, A: g.inVar(idx)})
	return nil
}

// callInto lowers scalar built-in calls.
func (g *codegen) callInto(dst string, call *CallExpr) error {
	switch call.Fn {
	case "abs", "len":
		if len(call.Args) != 1 {
			return fmt.Errorf("line %d: %s() takes one argument", call.Line, call.Fn)
		}
		op, err := g.expr(call.Args[0])
		if err != nil {
			return err
		}
		in, _ := tac.LookupOp(call.Fn)
		in.Dst, in.A = dst, op
		g.emit(&in)
		return nil
	case "contains":
		if len(call.Args) != 2 {
			return fmt.Errorf("line %d: contains() takes two arguments", call.Line)
		}
		return g.exprInto(dst, &BinExpr{Op: "contains", L: call.Args[0], R: call.Args[1], Line: call.Line})
	case "sum", "min", "max", "avg", "count":
		if len(call.Args) != 2 {
			return fmt.Errorf("line %d: %s(group, field) takes two arguments", call.Line, call.Fn)
		}
		grp, ok := call.Args[0].(*Ident)
		if !ok {
			return fmt.Errorf("line %d: %s() group must be a group parameter", call.Line, call.Fn)
		}
		n, ok, err := fieldIndex(call.Args[1], call.Line)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("line %d: %s() field index must be a constant integer", call.Line, call.Fn)
		}
		in, _ := tac.LookupOp(call.Fn)
		in.Dst, in.Group, in.Field = dst, "$"+grp.Name, n
		g.emit(&in)
		return nil
	case "size":
		if len(call.Args) != 0 {
			return fmt.Errorf("line %d: size() takes no arguments", call.Line)
		}
		g.emit(&tac.Instr{Op: tac.OpGroupSize, Dst: dst, Group: "$" + call.Recv})
		return nil
	case "at":
		if len(call.Args) != 1 {
			return fmt.Errorf("line %d: at() takes one index", call.Line)
		}
		idx, err := g.expr(call.Args[0])
		if err != nil {
			return err
		}
		g.emit(&tac.Instr{Op: tac.OpGroupGet, Dst: dst, Group: "$" + call.Recv, A: idx})
		return nil
	case "copy", "concat", "new":
		return fmt.Errorf("line %d: %s() produces a record; bind it with := at statement level", call.Line, call.Fn)
	default:
		return fmt.Errorf("line %d: unknown function %q", call.Line, call.Fn)
	}
}

// cond lowers a boolean expression into branches with short-circuit
// evaluation: control transfers to lTrue or lFalse.
func (g *codegen) cond(e Expr, lTrue, lFalse string) error {
	switch x := e.(type) {
	case *BinExpr:
		switch x.Op {
		case "&&":
			mid := g.label("A")
			if err := g.cond(x.L, mid, lFalse); err != nil {
				return err
			}
			g.place(mid)
			return g.cond(x.R, lTrue, lFalse)
		case "||":
			mid := g.label("O")
			if err := g.cond(x.L, lTrue, mid); err != nil {
				return err
			}
			g.place(mid)
			return g.cond(x.R, lTrue, lFalse)
		case "==", "!=", "<", "<=", ">", ">=", "contains":
			a, err := g.expr(x.L)
			if err != nil {
				return err
			}
			b, err := g.expr(x.R)
			if err != nil {
				return err
			}
			cmp, _ := tac.LookupOp(x.Op)
			g.emit(&tac.Instr{Op: tac.OpIf, A: a, Cmp: cmp.Bin, B: b, Target: lTrue})
			g.emit(&tac.Instr{Op: tac.OpGoto, Target: lFalse})
			return nil
		}
	case *UnExpr:
		if x.Op == "!" {
			return g.cond(x.X, lFalse, lTrue)
		}
	}
	// Generic truthiness.
	op, err := g.expr(e)
	if err != nil {
		return err
	}
	g.emit(&tac.Instr{Op: tac.OpIf, A: g.inVar(op), Target: lTrue})
	g.emit(&tac.Instr{Op: tac.OpGoto, Target: lFalse})
	return nil
}
