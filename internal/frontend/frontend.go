package frontend

import (
	"fmt"

	"blackboxflow/internal/tac"
)

// Compile translates PactScript source into a validated three-address-code
// program ready for execution and static analysis. Program.String renders
// what the analyses see.
func Compile(src string) (*tac.Program, error) {
	prog, err := compile(src)
	if err != nil {
		return nil, fmt.Errorf("frontend: %w", err)
	}
	return prog, nil
}

func compile(src string) (*tac.Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	file, err := parseFile(toks)
	if err != nil {
		return nil, err
	}
	funcs := make([]*tac.Func, len(file.Funcs))
	for i, fn := range file.Funcs {
		if funcs[i], err = compileFunc(fn); err != nil {
			return nil, err
		}
	}
	return tac.NewProgram(funcs)
}

// MustCompile is Compile, panicking on error (for static source text).
func MustCompile(src string) *tac.Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}
