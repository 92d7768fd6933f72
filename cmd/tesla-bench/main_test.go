package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownNamesRejected: a -fig or -table name with no runner is a usage
// error, not an empty successful run. The retired extension figures are
// unknown names too.
func TestUnknownNamesRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "rebuild"}, {"-fig", "shard"}, {"-fig", "faults"}, {"-fig", "trace"},
		{"-fig", "bogus"}, {"-table", "7"}, {},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(errb.String(), usage()) {
			t.Errorf("%v: stderr lacks the usage line:\n%s", args, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed to stdout:\n%s", args, out.String())
		}
	}
}

// TestKnownNamesRun: the usage line lists every remaining table and figure,
// and a table and the elision alias run to their output.
func TestKnownNamesRun(t *testing.T) {
	if got := usage(); got != "usage: tesla-bench -all | -table 1 | -fig 9|10|11a|11b|12|13|14a|14b|elide|agg|ingest" {
		t.Errorf("usage = %q", got)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-table", "1"}, "Table 1: assertion sets"},
		{[]string{"-fig", "elision", "-files", "3"}, "provably safe"},
	} {
		var out, errb bytes.Buffer
		if code := run(c.args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d: %s", c.args, code, errb.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%v: output lacks %q:\n%s", c.args, c.want, out.String())
		}
	}
}

// TestItersBounds: an -iters below 1 is a usage error for every figure,
// and figure 12, which splits its iterations into rounds, runs with fewer
// iterations than rounds.
func TestItersBounds(t *testing.T) {
	for _, args := range [][]string{{"-fig", "11a", "-iters", "0"}, {"-fig", "12", "-iters", "-3"}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(errb.String(), usage()) || out.Len() != 0 {
			t.Errorf("%v: stdout %q, stderr %q", args, out.String(), errb.String())
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-fig", "12", "-iters", "4"}, &out, &errb); code != 0 {
		t.Fatalf("-fig 12 -iters 4: exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Global") {
		t.Errorf("-fig 12 -iters 4: output lacks the Global row:\n%s", out.String())
	}
}
