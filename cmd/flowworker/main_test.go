package main

import (
	"strings"
	"testing"
)

// TestRunArguments pins that flowworker takes flags only: a stray argument
// is a usage error, exit status 2, rather than silently ending the flags —
// `flowworker oops -listen ADDR` used to listen on the default address.
func TestRunArguments(t *testing.T) {
	var stdout, stderr strings.Builder
	status := run([]string{"oops", "-listen", "127.0.0.1:9"}, &stdout, &stderr)
	if status != 2 || stdout.Len() > 0 || !strings.Contains(stderr.String(), `unexpected argument "oops"`) ||
		!strings.Contains(stderr.String(), "-listen") {
		t.Errorf("flowworker oops -listen 127.0.0.1:9: status %d, stdout %q, stderr %q; want status 2 and the usage", status, stdout.String(), stderr.String())
	}
}
