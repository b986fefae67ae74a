package frontend

import (
	"fmt"
	"strconv"

	"blackboxflow/internal/tac"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) accept(text string) bool {
	if p.cur().kind == tokPunct && p.cur().text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptIdent(text string) bool {
	if p.cur().kind == tokIdent && p.cur().text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return fmt.Errorf("line %d: expected %q, found %s", p.cur().line, text, p.cur())
	}
	return nil
}

func (p *parser) ident() (string, error) {
	if p.cur().kind != tokIdent {
		return "", fmt.Errorf("line %d: expected identifier, found %s", p.cur().line, p.cur())
	}
	return p.next().text, nil
}

// parseFile parses a whole source file.
func parseFile(toks []token) (*File, error) {
	p := &parser{toks: toks}
	f := &File{}
	for p.cur().kind != tokEOF {
		fn, err := p.parseFunc()
		if err != nil {
			return nil, err
		}
		f.Funcs = append(f.Funcs, fn)
	}
	if len(f.Funcs) == 0 {
		return nil, fmt.Errorf("no functions in source")
	}
	return f, nil
}

var funcKinds = map[string]tac.Kind{
	"map": tac.KindMap, "binary": tac.KindBinary, "cross": tac.KindBinary, "match": tac.KindBinary,
	"reduce": tac.KindReduce, "cogroup": tac.KindCoGroup,
}

func (p *parser) parseFunc() (*FuncDecl, error) {
	line := p.cur().line
	word, err := p.ident()
	if err != nil {
		return nil, err
	}
	kind, ok := funcKinds[word]
	if !ok {
		return nil, fmt.Errorf("line %d: unknown function kind %q", line, word)
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var params []string
	for !p.accept(")") {
		if len(params) > 0 {
			if err := p.expect(","); err != nil {
				return nil, err
			}
		}
		param, err := p.ident()
		if err != nil {
			return nil, err
		}
		params = append(params, param)
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &FuncDecl{Kind: kind, Name: name, Params: params, Body: body, Line: line}, nil
}

func (p *parser) parseBlock() ([]Stmt, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for !p.accept("}") {
		if p.cur().kind == tokEOF {
			return nil, fmt.Errorf("line %d: unterminated block", p.cur().line)
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	line := p.cur().line
	switch {
	case p.acceptIdent("emit"):
		rec, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &EmitStmt{Rec: rec, Line: line}, nil

	case p.acceptIdent("return"):
		return &ReturnStmt{Line: line}, nil

	case p.acceptIdent("if"):
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		then, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		var els []Stmt
		if p.acceptIdent("else") {
			if p.cur().kind == tokIdent && p.cur().text == "if" {
				// else if: parse as a nested if statement.
				s, err := p.parseStmt()
				if err != nil {
					return nil, err
				}
				els = []Stmt{s}
			} else {
				els, err = p.parseBlock()
				if err != nil {
					return nil, err
				}
			}
		}
		return &IfStmt{Cond: cond, Then: then, Else: els, Line: line}, nil

	case p.acceptIdent("while"):
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Line: line}, nil
	}

	// Assignment forms: `name := expr` or `name[idx] = expr`.
	name, err := p.ident()
	if err != nil {
		return nil, fmt.Errorf("line %d: expected statement, found %s", line, p.cur())
	}
	switch {
	case p.accept(":="):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{Name: name, Expr: e, Line: line}, nil
	case p.accept("["):
		idxTok := p.cur()
		if idxTok.kind != tokInt {
			return nil, fmt.Errorf("line %d: field assignment index must be a constant integer", line)
		}
		p.next()
		idx, err := strconv.Atoi(idxTok.text)
		if err != nil { // the token is all digits
			return nil, fmt.Errorf("line %d: field index %s out of range", line, idxTok.text)
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		if p.cur().kind == tokIdent && p.cur().text == "null" {
			p.next()
			return &SetFieldStmt{Rec: name, Index: idx, Line: line}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &SetFieldStmt{Rec: name, Index: idx, Expr: e, Line: line}, nil
	default:
		return nil, fmt.Errorf("line %d: expected := or [index]= after %q", line, name)
	}
}

// Operator precedence, loosest first.
var precLevels = [][]string{
	{"||"},
	{"&&"},
	{"==", "!=", "<", "<=", ">", ">="},
	{"+", "-", "."},
	{"*", "/", "%"},
}

func (p *parser) parseExpr() (Expr, error) { return p.parseBin(0) }

func (p *parser) parseBin(level int) (Expr, error) {
	if level >= len(precLevels) {
		return p.parseUnary()
	}
	l, err := p.parseBin(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := ""
		for _, op := range precLevels[level] {
			if p.cur().kind == tokPunct && p.cur().text == op {
				matched = op
				break
			}
		}
		// `contains` is a word operator at comparison precedence.
		if matched == "" && level == 2 && p.cur().kind == tokIdent && p.cur().text == "contains" {
			matched = "contains"
		}
		if matched == "" {
			return l, nil
		}
		line := p.next().line
		r, err := p.parseBin(level + 1)
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: matched, L: l, R: r, Line: line}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	line := p.cur().line
	if p.accept("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: "-", X: x, Line: line}, nil
	}
	if p.accept("!") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: "!", X: x, Line: line}, nil
	}
	return p.parsePrimary()
}

// builtin function names callable in expression position.
var builtins = map[string]bool{
	"copy": true, "concat": true, "new": true, "abs": true, "len": true,
	"contains": true, "sum": true, "min": true, "max": true, "avg": true,
	"count": true,
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokInt, tokFloat, tokString:
		p.next()
		return &Lit{Text: t.text, Line: t.line}, nil
	case tokPunct:
		if p.accept("(") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, fmt.Errorf("line %d: unexpected %s in expression", t.line, t)
	case tokIdent:
		name := p.next().text
		switch name {
		case "true", "false", "null":
			return &Lit{Text: name, Line: t.line}, nil
		}
		switch {
		case p.accept("("):
			if !builtins[name] {
				return nil, fmt.Errorf("line %d: unknown function %q", t.line, name)
			}
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return &CallExpr{Fn: name, Args: args, Line: t.line}, nil
		case p.accept("."):
			method, err := p.ident()
			if err != nil {
				return nil, err
			}
			if method != "size" && method != "at" {
				return nil, fmt.Errorf("line %d: unknown method %q (want size or at)", t.line, method)
			}
			if err := p.expect("("); err != nil {
				return nil, err
			}
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return &CallExpr{Fn: method, Recv: name, Args: args, Line: t.line}, nil
		case p.accept("["):
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			return &FieldExpr{Rec: name, Index: idx, Line: t.line}, nil
		default:
			return &Ident{Name: name, Line: t.line}, nil
		}
	default:
		return nil, fmt.Errorf("line %d: unexpected %s in expression", t.line, t)
	}
}

func (p *parser) parseArgs() ([]Expr, error) {
	var args []Expr
	for !p.accept(")") {
		if len(args) > 0 {
			if err := p.expect(","); err != nil {
				return nil, err
			}
		}
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
	return args, nil
}
