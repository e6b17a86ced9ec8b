// Package jobs is an addrlint fixture mirroring the real jobs.Request —
// the v1 fields are all present under their frozen names, and the
// violations exercise each rule — and the real ExperimentOutcome with a v1
// field removed.
package jobs

// Request mirrors the real content-addressed request schema.
type Request struct {
	Workload         string   `json:"workload"`
	Iterations       int      `json:"iterations,omitempty"`
	Dataset          int      `json:"dataset,omitempty"`
	Target           string   `json:"target"`
	Models           []string `json:"models"`
	Nodes            int      `json:"nodes,omitempty"`
	Seed             int64    `json:"seed,omitempty"`
	InjectAtCycle    uint64   `json:"inject_at_cycle,omitempty"`
	InjectAtFraction float64  `json:"inject_at_fraction,omitempty"`
	NoCheckpoint     bool     `json:"no_checkpoint,omitempty"`

	Epsilon float64 `json:"epsilon,omitempty"` // ok: post-v1 with omitempty

	Engine string `json:"engine"` // want `post-v1 field Request\.Engine \(json "engine"\) must be omitempty`

	Untagged int // want `has no json name`

	Excluded int `json:"-"` // want `excluded from`

	Dup1 string `json:"dup,omitempty"`
	Dup2 string `json:"dup,omitempty"` // want `duplicate json name "dup"`

	Mixin // want `embedded field`

	Legacy int `json:"legacy"` //lint:allow addr grandfathered audited field

	hidden int // ok: unexported fields never encode
}

// Mixin exists to exercise the embedded-field rule.
type Mixin struct {
	Inner int `json:"inner"`
}

func (r Request) use() int { return r.hidden }

// ExperimentOutcome mirrors the real outcome record, its v1 "cycles" field
// gone.
type ExperimentOutcome struct { // want `v1 field "cycles" of ExperimentOutcome is gone`
	Node    string `json:"node"`
	Model   string `json:"model"`
	Unit    string `json:"unit"`
	Outcome string `json:"outcome"`
	Latency int64  `json:"latency"`
}
