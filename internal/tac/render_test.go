package tac_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"blackboxflow/internal/frontend"
	"blackboxflow/internal/sca"
	"blackboxflow/internal/tac"
)

var update = flag.Bool("update", false, "rewrite testdata/analysis.golden")

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

// TestAnalysisMatchesParent pins what the static analyses derive for every
// function of the programs in testdata/compiled_tac.json: sca.Analyze's
// effect or error, and the proven and dead flags lowering gave each
// operand. The corpus's functions define every variable before they use
// it, so analysisEdges adds the other cases: uses a path leaves undefined,
// code after a return, loops, and functions Analyze rejects. Regenerate
// testdata/analysis.golden with
// `go test ./internal/tac -run TestAnalysisMatchesParent -update` only when
// an analysis is meant to change.
func TestAnalysisMatchesParent(t *testing.T) {
	var b bytes.Buffer
	srcs := analysisEdges
	for _, g := range goldenPrograms(t) {
		srcs = append(srcs, g.Src)
	}
	for i, src := range srcs {
		prog, err := frontend.Compile(src)
		if err != nil {
			t.Fatalf("Compile: %v\n%s", err, src)
		}
		for _, name := range prog.Order {
			f := prog.Funcs[name]
			fmt.Fprintf(&b, "program %d func %s\n", i, name)
			if e, err := sca.Analyze(f); err != nil {
				fmt.Fprintf(&b, "error: %v\n", err)
			} else {
				fmt.Fprintf(&b, "effect: %s\n", e)
			}
			b.WriteString(tac.LoweredFlags(f))
		}
	}
	path := "testdata/analysis.golden"
	if *update {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got := b.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s:%d: got\n\t%s\nwant\n\t%s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}

func TestReachingDefsChains(t *testing.T) {
	p, err := frontend.Compile(`
map f1(ir) {
	b := ir[1]
	out := copy(ir)
	if b < 0 {
		b := -b
		out[1] = b
	}
	emit out
}`)
	if err != nil {
		t.Fatal(err)
	}
	f1, _ := p.Lookup("f1")
	g := f1.CFG()

	// f1 compiles to: 0 $b := getfield $ir 1; 1 $out := copyrec $ir;
	// 2 if $b lt 0 goto T1; 3 goto E2; 4 T1: $b := neg $b;
	// 5 setfield $out 1 $b; 6 E2: emit $out; 7 return.
	if f1.Body[4].Op != tac.OpUn || f1.Body[5].Op != tac.OpSetField {
		t.Fatalf("f1 compiled to another shape:\n%s", f1)
	}
	// At the setfield (instr 5), $b has two reaching defs: the getfield
	// (instr 0)? No: the setfield is only reached through the neg at
	// instr 4, which kills the getfield def. USE-DEF must be exactly {4}.
	if defs := g.UseDef(5, "$b"); !slices.Equal(defs, []int{4}) {
		t.Fatalf("USE-DEF(setfield,$b) = %v, want {4}", defs)
	}
	// At the branch (instr 2), $b's def is the getfield (instr 0).
	if defs := g.UseDef(2, "$b"); !slices.Equal(defs, []int{0}) {
		t.Fatalf("USE-DEF(if,$b) = %v, want {0}", defs)
	}
	// DEF-USE of the getfield covers the branch and the neg.
	if uses := g.DefUse(0, "$b"); len(uses) != 2 {
		t.Fatalf("DEF-USE(getfield,$b) = %v, want 2 uses", uses)
	}
	// Parameters reach their uses.
	if !slices.Contains(g.UseDef(0, "$ir"), tac.ParamDef) {
		t.Error("parameter def must reach instruction 0")
	}
}

var analysisEdges = []string{
	"map f(ir) { a := ir[0] if a > 0 { x := 1 } y := x + 1 out := copy(ir) out[1] = y emit out }",
	"map f(ir) { y := x + 1 emit ir }",
	"map f(ir) { i := 0 while i < 3 { if i > 1 { z := i } i := i + 1 } out := copy(ir) out[0] = z emit out }",
	"map f(ir) { a := ir[0] if a > 0 { o := new() } else { o := copy(ir) } o[2] = a emit o }",
	"map f(ir) { a := ir[0] if a > 0 { o := new() o[1] = a } emit o }",
	"map f(ir) { emit o }",
	"map f(ir) { emit ir return b := ir[1] o := copy(ir) o[2] = b emit o }",
	"map f(ir) { o := copy(ir) i := 0 while i < 2 { p := copy(o) o := copy(p) o[3] = i i := i + 1 } emit o }",
	"map f(ir) { o := new() o[70000] = 1 emit o }",
	"map f(ir) { k := ir[0] v := ir[k] o := new() o[1] = v emit o }",
	"reduce g(grp) { n := grp.size() i := 0 while i < n { r := grp.at(i) if r[1] > 0 { emit r } i := i + 1 } }",
	"cogroup cg(l, r) { a := l.at(0) b := r.at(0) o := concat(a, b) c := concat(o, b) emit c }",
	"binary j(l, r) { a := l[1] b := a + 1 c := b * 2 if c > 4 { o := concat(l, r) emit o } else { emit r } }",
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
