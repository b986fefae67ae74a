package main

import (
	"strings"
	"testing"
)

// TestRunArguments pins that benchguard takes flags only: a stray argument
// is a usage error, exit status 2, before any benchmark runs — `benchguard
// oops -threshold 0.1` used to gate at the default threshold.
func TestRunArguments(t *testing.T) {
	var stdout, stderr strings.Builder
	status := run([]string{"-out", "", "oops", "-threshold", "0.1"}, &stdout, &stderr)
	if status != 2 || stdout.Len() > 0 || !strings.Contains(stderr.String(), `unexpected argument "oops"`) ||
		!strings.Contains(stderr.String(), "-threshold") {
		t.Errorf("benchguard -out '' oops -threshold 0.1: status %d, stdout %q, stderr %q; want status 2 and the usage", status, stdout.String(), stderr.String())
	}
}
