// Package repro reproduces "Analysis and RTL Correlation of Instruction
// Set Simulators for Automotive Microcontroller Robustness Verification"
// (Espinosa, Hernandez, Abella, de Andres, Ruiz — DAC 2015).
//
// The public API lives in repro/core. cmd/correlate renders every table
// and figure of the paper's evaluation, the extensions and the ablations
// from one list (core.Artifacts), and internal/campaign's golden test pins
// that rendering byte for byte. See README.md for the architecture
// overview and DESIGN.md for the system inventory, the documented
// microarchitectural deviations, the ablation suite and the
// slab-kernel/pooled-engine design.
//
// Fault-injection campaigns run on the checkpointed engine: the golden
// (fault-free) run is simulated once per runner and frozen as a ladder
// of full RTL snapshots plus copy-on-write memory images from the
// injection instant to program exit; every experiment forks from the
// rung at or below the cycle its fault arrives instead of re-simulating
// from reset, and a transient whose state re-equals a later rung is
// finalized without simulating the rest (DESIGN.md §10).
// The checkpoint-speedup row of `correlate -exp simtime` measures the
// resulting campaign speedup, and the repository benchmark (bench/) times
// the engine; results are bit-identical either way (see internal/fault's
// TestCheckpointFidelity).
// fault.Options.NoCheckpoint (core.CampaignRequest.NoCheckpoint, request
// field no_checkpoint) is the one engine selector: it swaps the
// production engine for the naive from-reset scalar reference the
// equivalence tests compare against.
//
// On top of the checkpoint, experiments execute bit-parallel in the
// PPSFP style: the runner asks of each fault universe (lane), one
// experiment at a time, a log of what the golden run read of its net,
// walked once per runner through the kernel's per-cycle read witnesses,
// to prove most lanes never activate — those are classified no-effect
// without being simulated — while activated lanes fall back to an exact
// scalar run forked from the ladder. Per-lane results are
// byte-identical to the scalar engine (TestEngineEquivalence,
// TestBatchedCampaignRace), so batching never leaks into content
// addresses, shard merges or cached outcomes (DESIGN.md §10). It has no
// switch of its own: the no_batch request field is a frozen wire name,
// accepted and echoed, and selects nothing.
//
// Campaigns can also be served instead of batch-run: cmd/faultserverd is
// a long-running HTTP/NDJSON job server (internal/jobs, internal/server)
// that schedules campaigns on a bounded worker pool, coalesces duplicate
// submissions, answers repeated specs from a content-addressed result
// cache, streams progressive Pf with Wilson confidence intervals, and
// cancels in-flight campaigns within one experiment granule. The same
// scheduler is available in-process through core.NewJobService, and
// `faultcampaign -json` emits the service's canonical result encoding so
// CLI and server outputs are byte-for-byte diffable (DESIGN.md §7).
//
// Campaigns scale out by sharding: `faultserverd -shards N` splits each
// campaign into deterministic experiment-range shards drained by
// in-process workers and by remote `faultserverd -worker` processes
// pulling leases over HTTP; results stay byte-identical to unsharded
// runs, and a request with a nonzero epsilon stops adaptively once the
// Wilson half-width around its progressive Pf converges (DESIGN.md §8,
// core.ExecuteShardedCampaign, `faultcampaign -shards/-epsilon`).
//
// Beyond the paper's permanent models (stuck-at-0/1, open-line), the
// stack executes transient faults end to end: rtl.BitFlip single-event
// upsets and rtl.SETPulse glitches with a configurable pulse width,
// requested as the "seu" and "set" models. Each transient experiment's
// injection cycle is sampled deterministically from the campaign seed,
// keyed by absolute experiment index, so transient campaigns shard
// byte-identically too (DESIGN.md §9, `faultcampaign -models seu,set
// -pulse N`).
package repro
