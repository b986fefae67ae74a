package tac

// RefRunner is the frozen reference interpreter's Runner
// (interp_ref_test.go), exported to the external tac_test package for the
// lowered-vs-reference differential.
type RefRunner = refRunner

// NewRefRunner is NewRunner for the reference interpreter.
func (ip *Interp) NewRefRunner(f *Func, kind Kind) (*RefRunner, error) {
	return ip.newRefRunner(f, kind)
}

// Lower lowers f again, for BenchmarkLowerQ7Script.
func Lower(f *Func) { lower(f) }
