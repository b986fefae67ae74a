package frontend

import (
	"strings"
	"testing"
)

// TestCompileErrorPaths extends the frontend's error-path table
// (frontend_test.go has the original core cases) with the parser edges and
// builtin-arity cases that formerly panicked or were silently accepted:
// every one must produce a diagnostic error — never a panic — and mention
// what went wrong.
func TestCompileErrorPaths(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		// Lexer.
		{"newline in string", "map f(ir) { x := \"ab\ncd\" }", "string literal"},

		// Parser.
		{"comment only", "// nothing here\n", "no functions"},
		{"unterminated nested block", "map f(ir) { if x == 1 { emit ir }", "unterminated block"},
		{"missing paren", "map f ir { emit ir }", `expected "("`},
		{"missing brace", "map f(ir) emit ir", `expected "{"`},
		{"bad statement", "map f(ir) { 42 }", "expected statement"},
		{"assign without walrus", "map f(ir) { x = 1 }", "expected := or"},
		{"dynamic field assign", "map f(ir) { ir[x] = 1 }", "constant integer"},
		{"unexpected eof in expr", "map f(ir) { x := 1 +", "end of input"},
		{"unbalanced paren", "map f(ir) { x := (1 + 2 emit ir }", `expected ")"`},

		// Codegen: arity and parameter misuse.
		{"cogroup one param", "cogroup f(g) { emit g }", "needs 2 parameter"},
		{"match one param", "match f(l) { emit l }", "needs 2 parameter"},
		{"copy arity", "map f(ir) { x := copy() emit x }", "copy() takes one record"},
		{"copy two args", "map f(ir) { x := copy(ir, ir) emit x }", "copy() takes one record"},
		{"concat arity", "cross f(l, r) { x := concat(l) emit x }", "concat() takes two records"},
		{"new with args", "map f(ir) { x := new(1) emit x }", "new() takes no arguments"},
		{"at no args", "reduce f(g) { x := g.at() emit x }", "at() takes one index"},
		{"at two args", "reduce f(g) { x := g.at(0, 1) emit x }", "at() takes one index"},
		{"size with args", "reduce f(g) { x := g.size(3) y := g.at(0) emit y }", "size() takes no arguments"},
		{"abs arity", "map f(ir) { x := abs(1, 2) emit ir }", "abs() takes one argument"},
		{"contains arity", "map f(ir) { x := contains(ir) emit ir }", "contains() takes two arguments"},
		{"agg arity", "reduce f(g) { x := sum(g) emit x }", "takes two arguments"},
		{"agg group literal", "reduce f(g) { x := sum(1, 2) emit x }", "group must be a group parameter"},
		{"record arg literal", "map f(ir) { x := copy(7) emit x }", "record argument must be a variable"},

		// Literal field indices past int's range.
		{"field index out of range", "map f(ir) { x := ir[99999999999999999999] emit ir }", "line 1: field index 99999999999999999999 out of range"},
		{"agg field index out of range", "reduce f(g) {\n x := sum(g, 99999999999999999999) }", "line 2: field index 99999999999999999999 out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Compile panicked: %v", r)
				}
			}()
			_, err := Compile(tc.src)
			if err == nil {
				t.Fatalf("Compile succeeded on %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCompileRuleErrors pins, from PactScript, the rules of a well-formed
// UDF that tac's validation owns: each error names where it occurred — the
// line, or the function for a rule about its parameters.
func TestCompileRuleErrors(t *testing.T) {
	for _, tc := range []struct{ name, src, where, want string }{
		{"kind conflict", "map f(ir) { x := 1\n x := copy(ir)\n emit x }", "line 2", "used both as"},
		{"setfield on input", "map f(ir) {\n\tir[0] = 1\n\temit ir\n}", "line 2", "inputs are immutable"},
		{"method on a non-group", "reduce f(g) {\n\tr := g.at(0)\n\ty := r.at(0)\n\temit y\n}", "line 3", "is not a group parameter"},
		{"group method in map", "map f(ir) {\n\tn := ir.size()\n\temit ir\n}", "line 2", "group instruction in map function"},
		{"duplicate parameter", "binary f(a, a) {\n\temit a\n}", "func f", "duplicate parameter"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.where) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want %q at %q", err, tc.want, tc.where)
			}
		})
	}
}

// TestCompileErrorsDoNotAbortLaterFunctions: an error in one function
// reports that function, not a cascade.
func TestCompileErrorLine(t *testing.T) {
	src := "map ok(ir) {\n\temit ir\n}\n\nmap broken(ir) {\n\tx := copy()\n\temit x\n}"
	_, err := Compile(src)
	if err == nil {
		t.Fatal("no error")
	}
	if !strings.Contains(err.Error(), "line 6") {
		t.Errorf("error %q does not carry the offending line 6", err)
	}
	if !strings.Contains(err.Error(), "broken") {
		t.Errorf("error %q does not name the broken function", err)
	}
}
