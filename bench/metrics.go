package main

import (
	"bytes"
	"encoding/json"
)

// procs pins GOMAXPROCS and is the whole load budget of a run: one
// closed-loop client whose campaigns fan out over this many engine
// workers. It is a constant, not NumCPU, so that two machines run the
// same schedule (before Go 1.25 GOMAXPROCS ignores a container's quota).
const procs = 2

// defaultSeed is the base seed the golden pins in golden.json are cut at.
const defaultSeed = 1

// defaultSeconds is run_seconds in BENCHMARK.json: the timed window of an
// end-to-end run. With 4 + 22x5 driver runs under a 3420 s cap, one run
// may cost about 29 s all in; 20 s of measurement leaves room for
// repeated set-up, verification and a slow neighbour, and spans several
// of the sandbox's speed phases.
const defaultSeconds = 20

// workloadDef is one entry of BENCHMARK.json's workloads list.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// e2eDef is one end-to-end metric with its regression bound: the share
// of the parent's median by which it may worsen.
type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerDef is one per-layer metric. Exact marks simulated quantities and
// counts that must repeat bit for bit at a fixed seed; Moves names the
// end-to-end metric and workload the metric is expected to move, printed
// beside the value (README has the full table). Neither is part of BENCHMARK.json, whose entries
// carry exactly name, unit and better.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Exact  bool   `json:"-"`
	Moves  string `json:"-"`
}

const (
	lower  = "lower"
	higher = "higher"
)

var workloadDefs = []workloadDef{
	{"engine_perm", "permanent-fault RTL campaigns in process: the 64-lane batch engine and its free lanes do the work; iss, store and server do none"},
	{"engine_transient", "seu+set campaigns in process: scalar bit-flips and lanes materialized from snapshots, so leon3 restore/cycle and mem forks dominate and free lanes are rare"},
	{"hybrid_audit", "hybrid campaigns in process: the ISS pass does most of the work and RTL only audits and escalations; carries the accuracy figures against pure RTL"},
	{"service_durable", "engine_perm's request shape through HTTP, 4 shards, journal and on-disk store: adds the jobs, store and server work that engine_perm bypasses"},
	{"rawsim", "sweeps of fault-free puwmod runs on the RTL core then the ISS, one worker per core: bypasses every campaign and service layer, so a change there must not move it"},
}

// endToEnd is what a user of the system sees, reported by every workload
// of an untraced run. An op is one campaign (one sweep of run pairs in
// rawsim); an experiment is one fault-injection run (one fault-free run
// in rawsim). "ref" times are host time divided, op by op, by the host's
// slowdown against a fixed calibration kernel sampled right after the op
// (see calibrate.go): the sandbox swings up to 2x between neighbour-load
// phases, and raw host time would carry that into every comparison.
// Each bound is set from the spread (interquartile range over median)
// the metric showed over five sets of ten runs at ten seeds on the 2-core
// shared sandbox, worst workload of the worst set: 0.4 % and 1.4 % for
// the allocation pair, whose 5 % is the tight gate; 13-16 % for the three
// ref times in the host's slow regime (3-8 % in its fast one), and the
// PR driver refuses a benchmark whose spread in any one workload exceeds
// the bound, so they carry the contract's widest; 32 % for setup_s, whose
// spread the driver does not gate. Metrics that spread as much without
// being indispensable were demoted (rawReadings). README.md has the
// tables; -agree flags a slide inside a bound as "drift".
var endToEnd = []e2eDef{
	{"setup_s", "s", lower, 0.25},
	{"exp_per_ref_s", "1/s", higher, 0.25},
	{"op_p50_ref_ms", "ms", lower, 0.25},
	{"cpu_ref_ms_per_kexp", "ms", lower, 0.25},
	{"alloc_kb_per_exp", "KB", lower, 0.05},
	{"allocs_per_exp", "count", lower, 0.05},
}

// rawReadings are what every run prints and stores in its result file
// (runResult.Raw), and -agree lists, without a bound, so they are not in
// BENCHMARK.json: the tail latency and the peak resident set, which do
// not repeat within 15 % on this host (issue 11: demote such a metric, do
// not widen its bound), and the uncalibrated host-time readings behind
// the ref times with the run's median host slowdown, so that an artefact
// of the calibration shows.
var rawReadings = []e2eDef{
	{"op_p90_ref_ms", "ms", lower, 0},
	{"peak_rss_mb", "MB", lower, 0},
	{"exp_per_s", "1/s", higher, 0},
	{"op_p50_ms", "ms", lower, 0},
	{"op_p90_ms", "ms", lower, 0},
	{"cpu_ms_per_kexp", "ms", lower, 0},
	{"setup_raw_s", "s", lower, 0},
	{"host_slowdown", "ratio", lower, 0},
}

// perLayer is what the traced run reports, for every workload; a layer a
// workload bypasses reads 0 there.
var perLayer = []layerDef{
	// rtl: the slab kernel under the LEON3 core (Core.K).
	{"rtl.snapshot_ns", "ns", lower, false, "exp_per_ref_s on engine_transient"},
	{"rtl.restore_ns", "ns", lower, false, "exp_per_ref_s on engine_transient"},
	{"rtl.inject_clear_ns", "ns", lower, false, "exp_per_ref_s on engine_transient"},
	{"rtl.witness_start_us", "us", lower, false, "exp_per_ref_s on engine_perm"},
	// leon3: the RTL core.
	{"leon3.cycle_ns", "ns", lower, false, "core.sim_cycles_per_s on rawsim, exp_per_ref_s on engine_transient"},
	{"leon3.snapshot_ns", "ns", lower, false, "exp_per_ref_s on engine_transient"},
	{"leon3.restore_ns", "ns", lower, false, "exp_per_ref_s on engine_transient"},
	{"leon3.reset_ns", "ns", lower, false, "exp_per_ref_s on engine_transient"},
	{"leon3.new_us", "us", lower, false, "setup_s"},
	{"leon3.ipc", "ratio", higher, true, "none: simulated"},
	{"leon3.golden_cycles", "cycles", lower, true, "none: simulated"},
	// iss: the functional simulator.
	{"iss.step_ns", "ns", lower, false, "core.iss_inst_per_s on rawsim, exp_per_ref_s on hybrid_audit"},
	{"iss.icount", "inst", lower, true, "none: simulated"},
	// mem: copy-on-write memory.
	{"mem.snapshot_us", "us", lower, false, "exp_per_ref_s on engine_transient, setup_s"},
	{"mem.image_fork_ns", "ns", lower, false, "exp_per_ref_s on engine_transient"},
	{"mem.loadimage_us", "us", lower, false, "setup_s"},
	// fault: the campaign engines.
	{"fault.runner_build_ms", "ms", lower, false, "setup_s"},
	{"fault.checkpoint_ms", "ms", lower, false, "setup_s"},
	{"fault.plan_us", "us", lower, false, "op_p50_ref_ms on all campaign workloads"},
	{"fault.runone_us", "us", lower, false, "exp_per_ref_s on engine_transient"},
	{"fault.campaign_exp_per_s", "1/s", higher, false, "exp_per_ref_s on engine_perm"},
	{"fault.iss_campaign_exp_per_s", "1/s", higher, false, "exp_per_ref_s on hybrid_audit"},
	{"fault.lanes_planned", "count", higher, true, "exp_per_ref_s on engine_perm"},
	{"fault.lanes_activated", "count", lower, true, "exp_per_ref_s on engine_perm"},
	{"fault.lanes_free", "count", higher, true, "exp_per_ref_s on engine_perm"},
	{"fault.materializations", "count", lower, true, "exp_per_ref_s on engine_transient"},
	{"fault.scalar_fallbacks", "count", lower, true, "exp_per_ref_s on engine_*"},
	{"fault.golden_pass_cycles", "cycles", lower, true, "exp_per_ref_s on engine_*"},
	{"fault.free_lane_ratio", "ratio", higher, true, "exp_per_ref_s on engine_perm"},
	{"fault.golden_pass_cycles_per_s", "1/s", higher, false, "exp_per_ref_s on engine_perm"},
	// campaign: the memoized engine registry.
	{"campaign.runnerfor_hit_ns", "ns", lower, false, "op_p50_ref_ms on service_durable"},
	// jobs: request handling, execution stages, sharding.
	{"jobs.normalize_us", "us", lower, false, "op_p50_ref_ms on service_durable"},
	{"jobs.key_us", "us", lower, false, "op_p50_ref_ms on service_durable"},
	{"jobs.stage_golden_ms", "ms", lower, false, "op_p50_ref_ms on engine_perm"},
	{"jobs.stage_plan_ms", "ms", lower, false, "op_p50_ref_ms on engine_perm"},
	{"jobs.stage_execute_ms", "ms", lower, false, "op_p50_ref_ms on engine_perm"},
	{"jobs.stage_assemble_ms", "ms", lower, false, "op_p50_ref_ms on engine_perm"},
	{"jobs.execute_self_ms", "ms", lower, false, "op_p50_ref_ms on engine_perm"},
	{"jobs.encode_us", "us", lower, false, "op_p50_ref_ms on service_durable"},
	{"jobs.outcome_bytes", "bytes", lower, true, "op_p50_ref_ms on service_durable"},
	{"jobs.planshards_ns", "ns", lower, false, "op_p50_ref_ms on service_durable"},
	{"jobs.submit_us", "us", lower, false, "op_p50_ref_ms on service_durable"},
	{"jobs.queue_wait_ms", "ms", lower, false, "op_p50_ref_ms on service_durable"},
	{"jobs.sharded_over_unsharded", "ratio", lower, false, "jobs.service_over_engine on service_durable"},
	{"jobs.shards_leased", "count", lower, true, "op_p50_ref_ms on service_durable"},
	{"jobs.shards_requeued", "count", lower, true, "op_p50_ref_ms on service_durable"},
	{"jobs.service_over_engine", "ratio", lower, false, "op_p50_ref_ms on service_durable: the service tax"},
	{"jobs.hybrid_pf_err_pp", "pp", lower, true, "none: simulated accuracy, stated beside every hybrid speed figure"},
	{"jobs.hybrid_ci_cover_frac", "frac", higher, true, "none: simulated accuracy"},
	// store: journal and result store on a real directory.
	{"store.put_ms", "ms", lower, false, "op_p50_ref_ms on service_durable"},
	{"store.get_us", "us", lower, false, "server.cached_rtt_us on service_durable"},
	{"store.journal_append_us", "us", lower, false, "op_p50_ref_ms on service_durable"},
	{"store.journal_appendsync_ms", "ms", lower, false, "op_p50_ref_ms on service_durable"},
	{"store.fsyncs_per_campaign", "count", lower, true, "op_p50_ref_ms on service_durable"},
	{"store.journal_records_per_campaign", "count", lower, true, "op_p50_ref_ms on service_durable"},
	{"store.journal_bytes_per_campaign", "bytes", lower, true, "op_p50_ref_ms on service_durable"},
	{"store.open_replay_ms", "ms", lower, false, "setup_s on service_durable"},
	// obs: the metrics registry and what attaching it costs.
	{"obs.counter_inc_ns", "ns", lower, false, "obs.traced_exp_per_s"},
	{"obs.histogram_observe_ns", "ns", lower, false, "obs.traced_exp_per_s"},
	{"obs.writetext_us", "us", lower, false, "none: scrape path only"},
	{"obs.traced_exp_per_s", "1/s", higher, false, "times host.slowdown, against exp_per_ref_s of the untraced run: the tracing overhead"},
	// server: HTTP round trips seen by the client.
	{"server.submit_rtt_us", "us", lower, false, "op_p50_ref_ms on service_durable"},
	{"server.stream_first_event_ms", "ms", lower, false, "op_p50_ref_ms on service_durable"},
	{"server.result_get_us", "us", lower, false, "op_p50_ref_ms on service_durable"},
	{"server.status_get_us", "us", lower, false, "none: polling clients only"},
	{"server.cached_rtt_us", "us", lower, false, "none: cache-hit path, outside the timed ops"},
	{"server.http_requests", "count", lower, true, "op_p50_ref_ms on service_durable"},
	{"server.http_5xx", "count", lower, true, "failed on service_durable"},
	// host: the sandbox's weather while the traced ops ran.
	{"host.slowdown", "ratio", lower, false, "none: how much slower than the reference host the calibration kernel ran"},
	{"host.peak_rss_mb", "MB", lower, false, "none: the process's peak resident set after the fixed 30 ops and the probes"},
	// workloads: program assembly.
	{"workloads.build_ms", "ms", lower, false, "setup_s"},
	// core: the two simulators head to head (rawsim only).
	{"core.sim_cycles_per_s", "1/s", higher, false, "exp_per_ref_s on rawsim"},
	{"core.iss_inst_per_s", "1/s", higher, false, "exp_per_ref_s on rawsim"},
	{"core.rtl_iss_slowdown", "ratio", lower, false, "none: the paper's 4.2 quantity, reported"},
}

// manifest renders BENCHMARK.json from the tables above, so the file and
// the program cannot drift apart (a self-test compares them).
func manifest() []byte {
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2eDef      `json:"end_to_end"`
		PerLayer   []layerDef    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		panic(err) // plain structs of strings and numbers always encode
	}
	return buf.Bytes()
}
