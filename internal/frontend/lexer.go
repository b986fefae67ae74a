// Package frontend compiles PactScript, a small imperative surface
// language for user-defined functions, into the three-address code of
// package tac: code generation builds tac instructions, each carrying its
// source line, and tac.NewProgram validates and lowers them. It plays the
// role of the javac-to-bytecode step in the paper's toolchain: UDF authors
// write structured code; the optimizer's static analysis (package sca) runs
// on the compiled three-address form.
//
// A PactScript UDF looks like:
//
//	map f1(ir) {
//	    b := ir[1]
//	    out := copy(ir)
//	    if b < 0 {
//	        out[1] = -b
//	    }
//	    emit out
//	}
//
//	reduce revenue(g) {
//	    first := g.at(0)
//	    out := copy(first)
//	    out[5] = sum(g, 4)
//	    emit out
//	}
//
// The compiler performs expression lowering with fresh temporaries,
// short-circuit boolean translation into branches, and structured control
// flow (if/else, while) into labels and gotos — producing exactly the kind
// of code the paper's Section 5 analyzes.
package frontend

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokKind classifies lexical tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokFloat
	tokString
	tokPunct // operators and delimiters
)

type token struct {
	kind tokKind
	text string
	line int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// punctuation and operators, longest first so the scanner is greedy.
var puncts = []string{
	":=", "==", "!=", "<=", ">=", "&&", "||",
	"(", ")", "{", "}", "[", "]", ",", ".",
	"+", "-", "*", "/", "%", "<", ">", "=", "!",
}

// lex scans src into tokens, stripping // and # comments.
func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#', c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' {
					j++
				}
				if j < len(src) && src[j] == '\n' {
					return nil, fmt.Errorf("line %d: newline in string literal", line)
				}
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("line %d: unterminated string literal", line)
			}
			// A string literal is Go-quoted, as tac.ParseImm reads it in
			// code generation; a bad escape is a lexical error.
			lit := src[i : j+1]
			if _, err := strconv.Unquote(lit); err != nil {
				return nil, fmt.Errorf("line %d: bad string literal %s: %v", line, lit, err)
			}
			toks = append(toks, token{tokString, lit, line})
			i = j + 1
		case unicode.IsDigit(rune(c)):
			j := i
			isFloat := false
			for j < len(src) && (unicode.IsDigit(rune(src[j])) || src[j] == '.') {
				if src[j] == '.' {
					// A digit must follow for this to be a float literal
					// (distinguishes "g.at" style method calls).
					if j+1 < len(src) && unicode.IsDigit(rune(src[j+1])) {
						isFloat = true
					} else {
						break
					}
				}
				j++
			}
			kind := tokInt
			if isFloat {
				kind = tokFloat
			}
			toks = append(toks, token{kind, src[i:j], line})
			i = j
		case isIdentStart(c):
			j := i
			for j < len(src) && isIdentPart(src[j]) {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], line})
			i = j
		default:
			matched := false
			for _, p := range puncts {
				if strings.HasPrefix(src[i:], p) {
					toks = append(toks, token{tokPunct, p, line})
					i += len(p)
					matched = true
					break
				}
			}
			if !matched {
				return nil, fmt.Errorf("line %d: unexpected character %q", line, c)
			}
		}
	}
	toks = append(toks, token{tokEOF, "", line})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || unicode.IsDigit(rune(c))
}
