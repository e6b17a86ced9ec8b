package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// TestSeamlint pins the engine-construction analyzer: every
// construction path in a consumer package is flagged (constructor
// call, composite literal, address-of literal, new), the registry
// builds in the jobs package are exempt while other functions
// there are not, and the engine package itself is out of scope.
func TestSeamlint(t *testing.T) {
	linttest.Run(t, linttest.TestData(t), lint.SeamAnalyzer,
		"e/app",
		"e/internal/jobs",
		"e/internal/fault",
	)
}
