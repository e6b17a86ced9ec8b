package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/fault"
	"repro/internal/jobs"
)

// contractReq is the in-process routing-contract campaign: three
// permanent models over a 24-node IU sample with a high audit fraction,
// so every node class collects a judgeable audit sample.
var contractReq = jobs.Request{
	Workload:         "excerptA",
	Models:           []string{"sa0", "sa1", "open"},
	Nodes:            24,
	Seed:             3,
	InjectAtFraction: 0.3,
	Engine:           "hybrid",
	RTLAudit:         0.5,
}

// hybridCampaign is the CLI campaign the collapse and shard checks run:
// small enough to finish in seconds, big enough that the audit sample and
// the escalation set are both non-trivial.
var hybridCampaign = campaign{workload: "excerptA", target: "iu", models: "sa0,sa1,open", nodes: 24, seed: 3}

// hybrid is the hermetic end-to-end smoke test behind `make
// hybrid-smoke`: it proves the hybrid router's contract from the
// outside, through the same binary a user runs.
//
// Four checks, in order of the guarantees they pin:
//
//  1. Routing-contract audit (in-process): a real hybrid campaign's
//     outcome must be internally consistent — the ISS/RTL engine
//     partition sums to the injection count, every RTL row carries its
//     ISS prediction, unaudited RTL rows appear only in escalated
//     classes, the per-class accounting recounts exactly from the
//     experiments array, and the audit-corrected Pf interval contains
//     the raw Wilson interval.
//  2. Warm runners (in-process against CLI): a second hybrid campaign
//     whose node sample overlaps check 1's, run in this process on the
//     ISS and RTL runners that one left warm — their verdict tables
//     hold its forcings — must be byte-identical to a cold
//     `faultcampaign -json` of the same request.
//  3. Full-audit collapse (CLI): `faultcampaign -json -engine hybrid
//     -rtl-audit 1.0` must emit bytes identical to the pure-RTL
//     spelling of the same campaign — auditing everything IS a pure
//     RTL campaign, down to the content address.
//  4. Shard invariance (CLI): the hybrid campaign sharded 3 ways must
//     be byte-identical to the unsharded run — the routing plan is a
//     pure function of the request, the audit sample of
//     (seed, absolute index).
//
// No network, no daemon.
func hybrid() error {
	if err := contract(); err != nil {
		return fmt.Errorf("routing contract: %w", err)
	}

	dir, bins, err := setup("hybridsmoke", "faultcampaign")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bin := bins[0]

	// Warm runners: contractReq's seed draws the same 24 nodes first.
	overlap := contractReq
	overlap.Nodes = 36
	out, err := jobs.Execute(context.Background(), overlap, 4, nil)
	if err != nil {
		return err
	}
	var warm bytes.Buffer
	if err := jobs.EncodeOutcome(&warm, out); err != nil {
		return err
	}
	overlapCLI := hybridCampaign
	overlapCLI.nodes = overlap.Nodes
	cold, err := runCLI(bin, overlapCLI.cli("-engine", "hybrid", "-rtl-audit", "0.5")...)
	if err != nil {
		return err
	}
	if !bytes.Equal(warm.Bytes(), cold) {
		return fmt.Errorf("overlapping hybrid campaign on warm runners differs from a cold faultcampaign -json (%d vs %d bytes)", warm.Len(), len(cold))
	}
	log.Printf("warm runners: overlapping hybrid campaign == cold faultcampaign -json (%d identical bytes)", len(cold))

	// Full-audit collapse: hybrid with -rtl-audit 1.0 == pure RTL, byte
	// for byte. The hybrid spelling must also shed its accounting block
	// (a collapsed campaign has no router to account for).
	pure, err := runCLI(bin, hybridCampaign.cli()...)
	if err != nil {
		return err
	}
	full, err := runCLI(bin, hybridCampaign.cli("-engine", "hybrid", "-rtl-audit", "1.0")...)
	if err != nil {
		return err
	}
	if !bytes.Equal(pure, full) {
		return fmt.Errorf("-engine hybrid -rtl-audit 1.0 output differs from pure RTL (%d vs %d bytes)", len(full), len(pure))
	}
	if strings.Contains(string(full), `"hybrid"`) {
		return fmt.Errorf("collapsed full-audit campaign still mentions hybrid in its JSON")
	}
	log.Printf("full-audit collapse: hybrid -rtl-audit 1.0 == pure RTL (%d identical bytes)", len(pure))

	// Shard invariance: the same hybrid campaign, unsharded vs 3 shards.
	un, err := runCLI(bin, hybridCampaign.cli("-engine", "hybrid", "-rtl-audit", "0.5")...)
	if err != nil {
		return err
	}
	if !strings.Contains(string(un), `"hybrid"`) {
		return fmt.Errorf("hybrid campaign JSON carries no hybrid accounting block")
	}
	sh, err := runCLI(bin, hybridCampaign.cli("-engine", "hybrid", "-rtl-audit", "0.5", "-shards", "3")...)
	if err != nil {
		return err
	}
	if !bytes.Equal(un, sh) {
		return fmt.Errorf("sharded hybrid output differs from unsharded (%d vs %d bytes)", len(sh), len(un))
	}
	log.Printf("shard invariance: 3-way sharded hybrid == unsharded (%d identical bytes)", len(un))
	return nil
}

// contract executes the hybrid campaign in-process and audits the
// outcome's internal consistency.
func contract() error {
	out, err := jobs.Execute(context.Background(), contractReq, 4, nil)
	if err != nil {
		return err
	}
	h := out.Hybrid
	if h == nil {
		return fmt.Errorf("hybrid campaign returned no hybrid accounting")
	}
	if h.ISSExperiments+h.RTLExperiments != out.Injections {
		return fmt.Errorf("engine partition %d ISS + %d RTL != %d injections",
			h.ISSExperiments, h.RTLExperiments, out.Injections)
	}
	escalated := map[string]bool{}
	for _, c := range h.Classes {
		escalated[c.Unit] = c.Escalated
	}
	iss, rtl, audited, disagreements := 0, 0, 0, 0
	for i, e := range out.Experiments {
		switch e.Engine {
		case "iss":
			iss++
			if e.Audited || e.Predicted != "" {
				return fmt.Errorf("experiment %d: ISS-trusted row carries audit fields", i)
			}
			if escalated[e.Unit] {
				return fmt.Errorf("experiment %d: ISS-trusted row in escalated class %s", i, e.Unit)
			}
		case "rtl":
			rtl++
			if e.Predicted == "" {
				return fmt.Errorf("experiment %d: RTL row without its ISS prediction", i)
			}
			if e.Audited {
				audited++
				// Disagreement is on the failure indicator, not the exact
				// outcome label: a predicted mismatch audited as a hang is
				// still a correctly predicted failure.
				noEffect := fault.OutcomeNoEffect.String()
				if (e.Predicted != noEffect) != (e.Outcome != noEffect) {
					disagreements++
				}
			} else if !escalated[e.Unit] {
				return fmt.Errorf("experiment %d: unaudited RTL row in trusted class %s", i, e.Unit)
			}
		default:
			return fmt.Errorf("experiment %d: engine %q", i, e.Engine)
		}
	}
	if iss != h.ISSExperiments || rtl != h.RTLExperiments || audited != h.Audited {
		return fmt.Errorf("accounting (%d,%d,%d) != recount (%d,%d,%d)",
			h.ISSExperiments, h.RTLExperiments, h.Audited, iss, rtl, audited)
	}
	if disagreements != h.Disagreements {
		return fmt.Errorf("accounting reports %d disagreements, recount finds %d", h.Disagreements, disagreements)
	}
	if h.Audited == 0 {
		return fmt.Errorf("audit fraction %v selected nothing", contractReq.RTLAudit)
	}
	if h.CorrectedPfLow > out.PfLow || h.CorrectedPfHigh < out.PfHigh {
		return fmt.Errorf("corrected interval [%v,%v] narrower than Wilson [%v,%v]",
			h.CorrectedPfLow, h.CorrectedPfHigh, out.PfLow, out.PfHigh)
	}
	log.Printf("routing contract: %d ISS-trusted + %d RTL (%d audited, %d disagreements) over %d injections",
		h.ISSExperiments, h.RTLExperiments, h.Audited, h.Disagreements, out.Injections)
	return nil
}
