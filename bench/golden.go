package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// golden.json pins, for the default seed, the sha256 of each workload's
// first output: the canonical outcome encoding of campaign 0 (the bytes
// `faultcampaign -json` and the service's /result both produce), or for
// rawsim the cycle count, instruction count and output words. Keys are
// workload names, with ".smoke" appended for the small self-test sizes.
// A pin changes only when simulated behaviour or the outcome encoding
// changes; regenerate with `go run ./bench -pins` and say why.
//
//go:embed golden.json
var goldenJSON []byte

var goldenPins = mustPins(goldenJSON)

func mustPins(b []byte) map[string]string {
	var pins map[string]string
	if err := json.Unmarshal(b, &pins); err != nil {
		panic("bench: golden.json: " + err.Error()) // the embedded file is part of the program
	}
	return pins
}

func pinName(workload string, smoke bool) string {
	if smoke {
		return workload + ".smoke"
	}
	return workload
}

// checkPin compares output bytes against the pinned digest.
func checkPin(pins map[string]string, name string, output []byte) error {
	want, ok := pins[name]
	if !ok {
		return fmt.Errorf("golden.json has no pin for %s", name)
	}
	if got := sha256Hex(output); got != want {
		return fmt.Errorf("%s: first output hashes to %s, golden.json pins %s", name, got, want)
	}
	return nil
}
