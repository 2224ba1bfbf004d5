package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "huge"}, "unknown scale"},
		{[]string{"-table", "9"}, "unknown table"},
		{[]string{"stray"}, "unexpected arguments"},
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
		// latency.Run maps N <= 0 to 1: unrejected, -n 0 prints Standard CI as the Ensembler row.
		{[]string{"-table", "3", "-n", "0"}, "invalid -n 0"},
		{[]string{"-table", "3", "-n", "-4"}, "invalid -n -4"},
	}
	for _, c := range cases {
		err := run(c.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want %q", c.args, err, c.want)
		}
	}
}

// TestRunHelpIsNotAnError: -h prints the usage to stderr and succeeds.
func TestRunHelpIsNotAnError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, &stdout, &stderr); err != nil {
		t.Errorf("run(-h) = %v, want nil", err)
	}
	if !strings.Contains(stderr.String(), "-table") || stdout.Len() != 0 {
		t.Errorf("run(-h) wrote stdout %q, stderr %q; want the usage on stderr only", stdout.String(), stderr.String())
	}
}

func TestRunTableIII(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-table", "3", "-n", "10"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Standard CI", "Ensembler", "STAMP", "overhead vs Standard CI"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("Table III output missing %q:\n%s", want, out.String())
		}
	}
}
