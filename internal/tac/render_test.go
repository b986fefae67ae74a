package tac_test

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"blackboxflow/internal/frontend"
	"blackboxflow/internal/tac"
)

// progDiff describes the first difference between two programs, or returns
// "" when they hold the same functions in the same order with the same
// instructions — field for field except the source line, immediates equal
// in kind and value (floats bit for bit).
func progDiff(got, want *tac.Program) string {
	if !slices.Equal(got.Order, want.Order) {
		return fmt.Sprintf("functions %v, want %v", got.Order, want.Order)
	}
	for _, name := range got.Order {
		g, w := got.Funcs[name], want.Funcs[name]
		if g.Kind != w.Kind || !slices.Equal(g.Params, w.Params) || len(g.Body) != len(w.Body) {
			return fmt.Sprintf("func %s:\n%s\nwant\n%s", name, g, w)
		}
		for i := range g.Body {
			x, y := *g.Body[i], *w.Body[i]
			same := sameOperand(x.A, y.A) && sameOperand(x.B, y.B)
			x.A, x.B, x.Line = tac.Operand{}, tac.Operand{}, 0
			y.A, y.B, y.Line = tac.Operand{}, tac.Operand{}, 0
			if !same || x != y {
				return fmt.Sprintf("func %s instr %d: %s, want %s", name, i, g.Body[i], w.Body[i])
			}
		}
	}
	return ""
}

func sameOperand(a, b tac.Operand) bool { return a.Var == b.Var && sameValue(a.Imm, b.Imm) }

// renderDiff renders prog as TAC text, reads it back, and describes the
// first instruction that did not survive, or returns "".
func renderDiff(prog *tac.Program) string {
	text := prog.String()
	back, err := tac.Parse(text)
	if err != nil {
		return fmt.Sprintf("rendering does not parse: %v\n%s", err, text)
	}
	if d := progDiff(back, prog); d != "" {
		return "rendering parses to other instructions: " + d
	}
	return ""
}

// TestCompileMatchesParent holds code generation to the instructions the
// compiler built before it emitted tac instructions directly, when it
// printed TAC text and parsed it. testdata/compiled_tac.json was generated
// once, at commit 1db2b7c, from every PactScript program that compiled
// there: the string literals of the repository's Go files (job documents'
// scripts included), the FuzzCompile and FuzzRunnerDifferential corpora, and
// the scripts of the workload documents internal/jobs/workloaddocs_test.go
// builds. Each entry holds the source and the TAC text generated from it.
func TestCompileMatchesParent(t *testing.T) {
	for _, g := range goldenPrograms(t) {
		want, err := tac.Parse(g.TAC)
		if err != nil {
			t.Fatalf("golden TAC does not parse: %v\n%s", err, g.TAC)
		}
		got, err := frontend.Compile(g.Src)
		if err != nil {
			t.Fatalf("Compile: %v\n%s", err, g.Src)
		}
		if d := progDiff(got, want); d != "" {
			t.Errorf("%s\nsource:\n%s", d, g.Src)
		}
	}
}

// goldenPrograms reads testdata/compiled_tac.json.
func goldenPrograms(tb testing.TB) []struct{ Src, TAC string } {
	tb.Helper()
	raw, err := os.ReadFile("testdata/compiled_tac.json")
	if err != nil {
		tb.Fatal(err)
	}
	var golden []struct{ Src, TAC string }
	if err := json.Unmarshal(raw, &golden); err != nil {
		tb.Fatal(err)
	}
	if len(golden) != 34 {
		tb.Fatalf("%d golden programs, want the 34 generated", len(golden))
	}
	return golden
}

// TestGeneratedTACIsParseable: the paper's Section 3 program, compiled from
// PactScript, renders as TAC text in the paper's notation that reads back as
// the same instructions.
func TestGeneratedTACIsParseable(t *testing.T) {
	prog := frontend.MustCompile(`
map f1(ir) {
	b := ir[1]
	out := copy(ir)
	if b < 0 {
		out[1] = -b
	}
	emit out
}
map f2(ir) {
	a := ir[0]
	if a >= 0 {
		emit ir
	}
}
map f3(ir) {
	out := copy(ir)
	out[0] = ir[0] + ir[1]
	emit out
}`)
	if d := renderDiff(prog); d != "" {
		t.Fatal(d)
	}
	text := prog.String()
	for _, want := range []string{"func map f1($ir)", "copyrec", "getfield"} {
		if !strings.Contains(text, want) {
			t.Errorf("generated TAC missing %q:\n%s", want, text)
		}
	}
}
