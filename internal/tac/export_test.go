package tac

import (
	"fmt"
	"strings"
)

// RefRunner is the frozen reference interpreter's Runner
// (interp_ref_test.go), exported to the external tac_test package for the
// lowered-vs-reference differential.
type RefRunner = refRunner

// NewRefRunner is NewRunnerLimit for the reference interpreter.
func NewRefRunner(f *Func, kind Kind, limit int) (*RefRunner, error) {
	return newRefRunner(f, kind, limit)
}

// NewRunnerLimit is NewRunner with a per-call step limit other than
// DefaultStepLimit.
func NewRunnerLimit(f *Func, kind Kind, limit int) (*Runner, error) {
	r, err := NewRunner(f, kind)
	if err != nil {
		return nil, err
	}
	r.limit = limit
	return r, nil
}

// Lower validates, analyses and lowers f again, for BenchmarkLowerQ7Script.
func Lower(f *Func) {
	kinds, _ := validate(f)
	lower(buildCFG(f), kinds)
}

// LoweredFlags renders the flags lowering derived for f's operands, one
// line per instruction: for a, b, rec and rec2, "-" when the operand names
// no variable, else "p" (proven defined) or "u", and for rec and rec2 a
// trailing "d" when the operand is dead.
func LoweredFlags(f *Func) string {
	var b strings.Builder
	flag := func(slot int32, proven, dead bool) string {
		switch {
		case slot < 0:
			return "-"
		case dead:
			return map[bool]string{true: "pd", false: "ud"}[proven]
		}
		return map[bool]string{true: "p", false: "u"}[proven]
	}
	for i, o := range f.prog.ops {
		fmt.Fprintf(&b, "%3d a=%-2s b=%-2s rec=%-2s rec2=%-2s %s\n", i,
			flag(o.a.slot, o.a.proven, false), flag(o.b.slot, o.b.proven, false),
			flag(o.rec.slot, o.rec.proven, o.rec.dead), flag(o.rec2.slot, o.rec2.proven, o.rec2.dead), o.in)
	}
	return b.String()
}
