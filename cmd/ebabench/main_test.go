package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestRunRejectsUnknownNamesBeforePreparing pins that a misspelt experiment
// or scale is a usage error caught before any dataset is built: nothing
// reaches stdout, and stderr names the bad value.
func TestRunRejectsUnknownNamesBeforePreparing(t *testing.T) {
	for _, argv := range [][]string{
		{"-scale", "tiny", "-experiment", "bogus"},
		{"-scale", "huge"},
		{"-json"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(argv, &stdout, &stderr); !errors.Is(err, errUsage) {
			t.Errorf("%v: err = %v, want usage error", argv, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %q to stdout", argv, stdout.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("%v: nothing on stderr", argv)
		}
	}
}

// TestRunOneExperiment runs a single named experiment at tiny scale: the
// dataset line, that experiment's output and its timing line, and no other
// experiment.
func TestRunOneExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scale", "tiny", "-experiment", "fig6"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "prepared tiny dataset in ") {
		t.Errorf("output does not open with the dataset line:\n%s", out)
	}
	if !strings.Contains(out, "  [fig6 took ") {
		t.Errorf("no fig6 timing line:\n%s", out)
	}
	if n := strings.Count(out, " took "); n != 1 {
		t.Errorf("%d experiments ran, want 1:\n%s", n, out)
	}
}
