// Package jobs is the seamlint fixture's registry package: the builds
// behind its runner caches may construct engines, anything else — the
// cache lookups included — may not.
package jobs

import "e/internal/fault"

// buildRunner is a registry build: direct construction is its job.
func buildRunner(seed int64) *fault.Runner {
	return fault.NewRunner(seed)
}

// buildISSRunner is the ISS registry build.
func buildISSRunner(seed int64) *fault.ISSRunner {
	return fault.NewISSRunner(seed)
}

// RunnerFor is a cache lookup, not a build.
func RunnerFor(seed int64) *fault.Runner {
	return fault.NewRunner(seed) // want `direct fault\.NewRunner call`
}

func rogue(seed int64) *fault.Runner {
	return fault.NewRunner(seed) // want `direct fault\.NewRunner call`
}
