package frontend

import (
	"testing"

	"blackboxflow/internal/sca"
)

// FuzzCompile feeds arbitrary source through the whole PactScript pipeline
// — lexer, parser, code generator, tac.NewProgram — and every function that
// compiles through sca.Analyze. The invariants: no panic anywhere (Analyze
// may return an error), and whatever compiles is a non-empty program. That the program's
// rendering reads back as the same instructions is fuzzed in package tac,
// which holds the TAC text reader (FuzzRunnerDifferential).
//
// Run the stored corpus as part of `go test`; explore with
// `go test -fuzz=FuzzCompile ./internal/frontend`.
func FuzzCompile(f *testing.F) {
	seeds := []string{
		"map f(ir) { emit ir }",
		"map f(ir) { b := ir[1] out := copy(ir) if b < 0 { out[1] = -b } emit out }",
		"reduce g(grp) { first := grp.at(0) out := copy(first) out[2] = sum(grp, 1) emit out }",
		"cogroup cg(l, r) { out := new() out[0] = l.size() + r.size() emit out }",
		"binary j(l, r) { out := concat(l, r) emit out }",
		"map w(ir) { i := 0 while i < 10 { i := i + 1 } emit ir }",
		"map c(ir) { if ir[0] == 1 && ir[1] != 2 || !(ir[2] > 3) { emit ir } }",
		`map s(ir) { if ir[0] contains "x" { emit ir } }`,
		"map f(ir) { x := g.at() }",
		"map f(ir) { x := copy( }",
		"map f(ir) {",
		"reduce f(g) { x := sum(g, 1e9) emit x }",
		"map f(ir) { x := ir[0].size() }",
		"# comment\nmap f(ir) { emit ir } trailing",
		"map \x00(ir) { emit ir }",
		`map f(ir) { x := "\\" emit ir }`,
		"map f(ir) { x := ir[99999999999999999999] emit ir }",
		"reduce f(g) { x := sum(g, 99999999999999999999) return }",
		`map r(ir) { o := copy(ir) o[1] = null o[2] = 7 / 3.0 if ir[3] { o[4] = "a,b#\"c" } emit o }`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Compile(src)
		if err != nil {
			return
		}
		if prog == nil || len(prog.Funcs) == 0 {
			t.Fatalf("Compile(%q) returned an empty program without error", src)
		}
		for _, f := range prog.Funcs {
			_, _ = sca.Analyze(f) // an error is an answer, a panic is not
		}
	})
}
