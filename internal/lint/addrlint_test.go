package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// TestAddrlint pins the content-address analyzer: the jobs fixture
// carries a correctly tagged v1 Request plus one violation per rule
// (post-v1 without omitempty, untagged, json:"-", duplicate name,
// embedded field, hatched legacy field), and an ExperimentOutcome that
// drops a v1 field and must be flagged at the type declaration.
func TestAddrlint(t *testing.T) {
	linttest.Run(t, linttest.TestData(t), lint.AddrAnalyzer, "b/internal/jobs")
}
