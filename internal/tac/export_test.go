package tac

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

// Lower validates and lowers f again, for BenchmarkLowerQ7Script.
func Lower(f *Func) {
	kinds, _ := validate(f)
	lower(f, kinds)
}
