package frontend

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"

	"blackboxflow/internal/record"
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

func sameOperand(a, b tac.Operand) bool {
	if a.Var != b.Var || a.Imm.Kind() != b.Imm.Kind() {
		return false
	}
	if a.Imm.Kind() == record.KindFloat {
		return math.Float64bits(a.Imm.AsFloat()) == math.Float64bits(b.Imm.AsFloat())
	}
	return a.Imm.Equal(b.Imm)
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
	raw, err := os.ReadFile("testdata/compiled_tac.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []struct{ Src, TAC string }
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != 34 {
		t.Fatalf("%d golden programs, want the 34 generated", len(golden))
	}
	for _, g := range golden {
		want, err := tac.Parse(g.TAC)
		if err != nil {
			t.Fatalf("golden TAC does not parse: %v\n%s", err, g.TAC)
		}
		got, err := Compile(g.Src)
		if err != nil {
			t.Fatalf("Compile: %v\n%s", err, g.Src)
		}
		if d := progDiff(got, want); d != "" {
			t.Errorf("%s\nsource:\n%s", d, g.Src)
		}
	}
}
