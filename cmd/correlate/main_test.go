package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/campaign"
)

func TestUnknownExperimentIsRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-exp", "fig8"}, &stdout, &stderr)
	if err == nil {
		t.Fatal("-exp fig8 ran")
	}
	for _, a := range campaign.Artifacts() {
		if !strings.Contains(err.Error(), a.Name) {
			t.Errorf("error %q does not name %s", err, a.Name)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout %q, want nothing", stdout.String())
	}
}

// TestNegativeNodesIsRejected: 0 is the census, so a negative -nodes has
// no meaning and must not run as an empty sample; nor may a negative
// -iters run as the default.
func TestNegativeNodesIsRejected(t *testing.T) {
	for _, flag := range []string{"-nodes", "-iters"} {
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-exp", "fig5", flag, "-1"}, &stdout, &stderr); err == nil || stdout.Len() != 0 {
			t.Errorf("%s -1: error %v, stdout %q; want an error and no rendering", flag, err, stdout.String())
		}
	}
}

// TestStdoutIsTheRendering holds stdout to the artifact alone: the timing
// line goes to stderr.
func TestStdoutIsTheRendering(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-exp", "table1"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if stdout.String() != want.Render()+"\n" {
		t.Errorf("stdout:\n%s\nwant Table1().Render():\n%s", stdout.String(), want.Render())
	}
	if !strings.HasPrefix(stderr.String(), "[table1 took ") {
		t.Errorf("stderr %q, want the timing line", stderr.String())
	}
}
