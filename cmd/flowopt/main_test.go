package main

import (
	"strings"
	"testing"
)

// TestRunArguments pins flowopt's exit statuses: flags go before the one
// action, and an argument after it is a usage error rather than silently
// ignored — `flowopt run q7` used to run the default task, Q15.
func TestRunArguments(t *testing.T) {
	for _, c := range []struct {
		args       []string
		status     int
		out, usage string // substrings of stdout and stderr
	}{
		{[]string{"run", "q7"}, 2, "", `unexpected argument "q7"`},
		{[]string{"-task", "q7", "optimize", "-dop", "2"}, 2, "", `unexpected argument "-dop"`},
		{[]string{"-task", "q7", "bogus"}, 2, "", `unknown action "bogus"`},
		{[]string{"-nosuchflag", "plans"}, 2, "", "usage: flowopt"},
		{[]string{"-task", "q8", "plans"}, 1, "", `unknown task "q8"`},
		{[]string{"-task", "q7", "-dop", "2", "optimize"}, 0, "join_l_o", ""},
	} {
		var stdout, stderr strings.Builder
		status := run(c.args, &stdout, &stderr)
		if status != c.status || !strings.Contains(stdout.String(), c.out) || !strings.Contains(stderr.String(), c.usage) {
			t.Errorf("flowopt %s: status %d, stdout %q, stderr %q; want status %d, stdout with %q, stderr with %q",
				strings.Join(c.args, " "), status, stdout.String(), stderr.String(), c.status, c.out, c.usage)
		}
		if c.status == 2 && stdout.Len() > 0 {
			t.Errorf("flowopt %s: a usage error printed %q", strings.Join(c.args, " "), stdout.String())
		}
	}
}
