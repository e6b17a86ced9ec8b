package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/store"
)

// This file is the package's one experiment encoder. A campaign's bytes
// are almost all its experiments array — 768 objects of ten fixed fields
// in a 133 KB outcome — and they are written once per campaign, indented
// in the outcome (the store, /result, `faultcampaign -json`). The array is
// laid here by hand, byte for byte what encoding/json writes for the same
// value; everything else of an outcome (the request echo, the floats, the
// maps) still goes through encoding/json, and so does every decoder, which
// is what TestOutcomeEncodingMatchesEncodingJSON holds this file to. The
// journal holds no experiment object: its shard_completed record is a
// shard's result columns (shardRecord), laid here as well.

// The layout of an experiment object and of the array around it: what
// precedes each field's value, in ExperimentOutcome's field order. It is
// json.Encoder's under SetIndent("", "  ") for an array one level inside
// the top object, as Outcome.Experiments is.
const (
	fieldSep     = ",\n      "
	keyNode      = "{\n      \"node\": "
	keyModel     = fieldSep + `"model": `
	keyUnit      = fieldSep + `"unit": `
	keyOutcome   = fieldSep + `"outcome": `
	keyLatency   = fieldSep + `"latency": `
	keyCycles    = fieldSep + `"cycles": `
	keyAtCycle   = fieldSep + `"at_cycle": `
	keyEngine    = fieldSep + `"engine": `
	keyPredicted = fieldSep + `"predicted": `
	keyAudited   = fieldSep + `"audited": `
	objEnd       = "\n    }"
	arrayOpen    = "[\n    "
	arraySep     = ",\n    "
	arrayClose   = "\n  ]"
)

// appendExperiment appends one experiment, honouring the omitempty of the
// four optional fields. Adding a field to ExperimentOutcome means adding it
// here; TestEncoderCoversEveryField fails until that is done.
func appendExperiment(b []byte, e *ExperimentOutcome) []byte {
	b = store.AppendJSONString(append(b, keyNode...), e.Node)
	b = store.AppendJSONString(append(b, keyModel...), e.Model)
	b = store.AppendJSONString(append(b, keyUnit...), e.Unit)
	b = store.AppendJSONString(append(b, keyOutcome...), e.Outcome)
	b = strconv.AppendInt(append(b, keyLatency...), e.Latency, 10)
	b = strconv.AppendUint(append(b, keyCycles...), e.Cycles, 10)
	if e.AtCycle != nil {
		b = strconv.AppendUint(append(b, keyAtCycle...), *e.AtCycle, 10)
	}
	if e.Engine != "" {
		b = store.AppendJSONString(append(b, keyEngine...), e.Engine)
	}
	if e.Predicted != "" {
		b = store.AppendJSONString(append(b, keyPredicted...), e.Predicted)
	}
	if e.Audited {
		b = append(append(b, keyAudited...), "true"...)
	}
	return append(b, objEnd...)
}

// appendExperiments appends an experiments array: null for a nil slice and
// [] for an empty one, as encoding/json tells them apart.
func appendExperiments(b []byte, exps []ExperimentOutcome) []byte {
	if exps == nil {
		return append(b, "null"...)
	}
	if len(exps) == 0 {
		return append(b, "[]"...)
	}
	for i := range exps {
		if i == 0 {
			b = append(b, arrayOpen...)
		} else {
			b = append(b, arraySep...)
		}
		b = appendExperiment(b, &exps[i])
	}
	return append(b, arrayClose...)
}

// experimentBytes is the size budgeted for one indented experiment (a real
// one is ~175 bytes), so that an outcome's buffer is as a rule allocated
// once; longer names only cost an append's regrowth.
const experimentBytes = 192

// outcomeTail is how encoding/json ends an outcome whose experiments are
// nil: what encodeOutcome cuts off the head to put the array in its place.
const outcomeTail = "null\n}\n"

// encodeOutcome returns the canonical encoding as bytes: the head — every
// field but the experiments — by encoding/json from a copy of the outcome
// without them, then the array by appendExperiments, in one buffer.
func encodeOutcome(o *Outcome) ([]byte, error) {
	head := *o
	head.Experiments = nil
	buf := bytes.NewBuffer(make([]byte, 0, 2048+experimentBytes*len(o.Experiments)))
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&head); err != nil {
		return nil, fmt.Errorf("jobs: encoding outcome: %w", err)
	}
	b := buf.Bytes()
	if !bytes.HasSuffix(b, []byte(outcomeTail)) {
		// Only a field declared after Experiments can do this.
		return nil, fmt.Errorf("jobs: encoding outcome: experiments are not the outcome's last field")
	}
	b = appendExperiments(b[:len(b)-len(outcomeTail)], o.Experiments)
	return append(b, "\n}\n"...), nil
}

// EncodeOutcome writes the canonical indented JSON encoding of an
// outcome. The CLI's -json flag and the server's result endpoint both use
// it, which is what makes their outputs diffable.
func EncodeOutcome(w io.Writer, o *Outcome) error {
	b, err := encodeOutcome(o)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// AppendJSON appends the record exactly as json.Marshal encodes it. The
// journal asks its record data for this method, so a shard_completed record
// skips the reflecting encoder; TestShardCompletedFrame holds the two to
// each other.
func (r *shardRecord) AppendJSON(b []byte) []byte {
	b = strconv.AppendUint(append(b, `{"golden_cycles":`...), r.GoldenCycles, 10)
	b = strconv.AppendBool(append(b, `,"checkpointed":`...), r.Checkpointed)
	b = strconv.AppendInt(append(b, `,"start":`...), int64(r.Start), 10)
	b = strconv.AppendInt(append(b, `,"end":`...), int64(r.End), 10)
	b = appendColumn(append(b, `,"outcomes":`...), r.Outcomes, store.AppendJSONString)
	b = appendColumn(append(b, `,"latencies":`...), r.Latencies, appendInt)
	b = appendColumn(append(b, `,"cycles":`...), r.Cycles, appendUint)
	if len(r.Engines) > 0 {
		b = appendColumn(append(b, `,"engines":`...), r.Engines, store.AppendJSONString)
	}
	if len(r.Predicted) > 0 {
		b = appendColumn(append(b, `,"predicted":`...), r.Predicted, store.AppendJSONString)
	}
	if len(r.Audited) > 0 {
		b = appendColumn(append(b, `,"audited":`...), r.Audited, strconv.AppendBool)
	}
	return append(b, '}')
}

// appendColumn appends a compact JSON array of vs, each laid by one: null
// for a nil slice, as encoding/json writes it.
func appendColumn[T any](b []byte, vs []T, one func([]byte, T) []byte) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = one(b, v)
	}
	return append(b, ']')
}

func appendInt(b []byte, v int64) []byte   { return strconv.AppendInt(b, v, 10) }
func appendUint(b []byte, v uint64) []byte { return strconv.AppendUint(b, v, 10) }
