package frontend

import "blackboxflow/internal/tac"

// The PactScript abstract syntax tree.

// File is a parsed source file: a list of UDFs.
type File struct {
	Funcs []*FuncDecl
}

// FuncDecl is one UDF declaration.
type FuncDecl struct {
	Kind   tac.Kind // "cross" and "match" declare binary functions
	Name   string
	Params []string
	Body   []Stmt
	Line   int
}

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// AssignStmt is `name := expr` (declaration/assignment of a scalar or
// record variable).
type AssignStmt struct {
	Name string
	Expr Expr
	Line int
}

// SetFieldStmt is `rec[idx] = expr` or `rec[idx] = null` (an explicit
// projection). The index must be a compile-time constant.
type SetFieldStmt struct {
	Rec   string
	Index int
	Expr  Expr // nil for explicit projection (null)
	Line  int
}

// EmitStmt is `emit rec`.
type EmitStmt struct {
	Rec  string
	Line int
}

// ReturnStmt is `return`.
type ReturnStmt struct{ Line int }

// IfStmt is `if cond { ... } [else { ... }]`.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Line int
}

// WhileStmt is `while cond { ... }`.
type WhileStmt struct {
	Cond Expr
	Body []Stmt
	Line int
}

func (*AssignStmt) stmtNode()   {}
func (*SetFieldStmt) stmtNode() {}
func (*EmitStmt) stmtNode()     {}
func (*ReturnStmt) stmtNode()   {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}

// Expr is an expression node.
type Expr interface{ exprNode() }

// Ident references a variable.
type Ident struct {
	Name string
	Line int
}

// Lit is an integer, float, string, bool, or null literal.
type Lit struct {
	Text string // raw literal text ("42", "1.5", `"x"`, "true", "null")
	Line int
}

// FieldExpr is `rec[index]`; Index is an expression — constant indices
// compile to static getfields, anything else to a dynamic access.
type FieldExpr struct {
	Rec   string
	Index Expr
	Line  int
}

// BinExpr is a binary operation.
type BinExpr struct {
	Op   string // +, -, *, /, %, ==, !=, <, <=, >, >=, &&, ||, ., contains
	L, R Expr
	Line int
}

// UnExpr is a unary operation: -x or !x.
type UnExpr struct {
	Op   string
	X    Expr
	Line int
}

// CallExpr is one of the built-in calls: copy(r), concat(a,b), new(),
// abs(x), len(x), contains(a,b), sum/min/max/avg/count(g, field),
// g.size(), g.at(i).
type CallExpr struct {
	Fn   string
	Recv string // non-empty for method form g.size() / g.at(i)
	Args []Expr
	Line int
}

func (*Ident) exprNode()     {}
func (*Lit) exprNode()       {}
func (*FieldExpr) exprNode() {}
func (*BinExpr) exprNode()   {}
func (*UnExpr) exprNode()    {}
func (*CallExpr) exprNode()  {}
