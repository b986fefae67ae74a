package main

import (
	"strings"
	"testing"
)

// TestRunArguments pins that experiments takes flags only: a stray argument
// is a usage error, exit status 2, rather than silently ending the flags —
// `experiments -exp table1 oops -sf 4` used to run at the default scale.
func TestRunArguments(t *testing.T) {
	var stdout, stderr strings.Builder
	status := run([]string{"-exp", "table1", "oops", "-sf", "4"}, &stdout, &stderr)
	if status != 2 || stdout.Len() > 0 || !strings.Contains(stderr.String(), `unexpected argument "oops"`) ||
		!strings.Contains(stderr.String(), "-sf") {
		t.Errorf("experiments -exp table1 oops -sf 4: status %d, stdout %q, stderr %q; want status 2 and the usage", status, stdout.String(), stderr.String())
	}
}
