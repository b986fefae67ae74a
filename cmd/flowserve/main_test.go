package main

import (
	"strings"
	"testing"
)

// TestRunArguments pins that flowserve takes flags only: a stray argument
// is a usage error, exit status 2, rather than silently ending the flags —
// `flowserve -addr :9 oops -dop 8` used to serve at the default DOP, 4.
func TestRunArguments(t *testing.T) {
	var stderr strings.Builder
	status := run([]string{"-addr", "127.0.0.1:9", "oops", "-dop", "8"}, &stderr)
	if status != 2 || !strings.Contains(stderr.String(), `unexpected argument "oops"`) || !strings.Contains(stderr.String(), "-dop") {
		t.Errorf("flowserve -addr 127.0.0.1:9 oops -dop 8: status %d, stderr %q; want status 2 and the usage", status, stderr.String())
	}
}
