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
// in a 133 KB outcome — and they are written twice per campaign: indented
// in the outcome (the store, /result, `faultcampaign -json`) and compact
// in the journal's shard_completed records. Both spellings are laid here
// by hand, byte for byte what encoding/json writes for the same value;
// everything else of an outcome (the request echo, the floats, the maps)
// still goes through encoding/json, and so does every decoder, which is
// what TestOutcomeEncodingMatchesEncodingJSON holds this file to.

// spelling is one layout of an experiment object and of the array around
// it: what precedes each field's value, in ExperimentOutcome's field order.
type spelling struct {
	node, model, unit, outcome, latency, cycles, atCycle, engine, predicted, audited string
	// end closes an object; open, sep and close bracket a non-empty array.
	end, open, sep, close string
}

// newSpelling derives a layout from its punctuation: objOpen and fieldSep
// carry the newline and indentation of an experiment's fields, colon the
// blank after a key.
func newSpelling(objOpen, fieldSep, colon, objEnd, open, sep, close string) spelling {
	key := func(name string) string { return fieldSep + `"` + name + `"` + colon }
	return spelling{
		node:  objOpen + `"node"` + colon,
		model: key("model"), unit: key("unit"), outcome: key("outcome"),
		latency: key("latency"), cycles: key("cycles"), atCycle: key("at_cycle"),
		engine: key("engine"), predicted: key("predicted"), audited: key("audited"),
		end: objEnd, open: open, sep: sep, close: close,
	}
}

var (
	// compact is json.Marshal's spelling.
	compact = newSpelling("{", ",", ":", "}", "[", ",", "]")
	// indented is json.Encoder's under SetIndent("", "  ") for an array one
	// level inside the top object, as Outcome.Experiments is.
	indented = newSpelling("{\n      ", ",\n      ", ": ", "\n    }", "[\n    ", ",\n    ", "\n  ]")
)

// appendExperiment appends one experiment in the given spelling, honouring
// the omitempty of the four optional fields. Adding a field to
// ExperimentOutcome means adding it here; TestEncoderCoversEveryField fails
// until that is done.
func appendExperiment(b []byte, e *ExperimentOutcome, sp *spelling) []byte {
	b = store.AppendJSONString(append(b, sp.node...), e.Node)
	b = store.AppendJSONString(append(b, sp.model...), e.Model)
	b = store.AppendJSONString(append(b, sp.unit...), e.Unit)
	b = store.AppendJSONString(append(b, sp.outcome...), e.Outcome)
	b = strconv.AppendInt(append(b, sp.latency...), e.Latency, 10)
	b = strconv.AppendUint(append(b, sp.cycles...), e.Cycles, 10)
	if e.AtCycle != nil {
		b = strconv.AppendUint(append(b, sp.atCycle...), *e.AtCycle, 10)
	}
	if e.Engine != "" {
		b = store.AppendJSONString(append(b, sp.engine...), e.Engine)
	}
	if e.Predicted != "" {
		b = store.AppendJSONString(append(b, sp.predicted...), e.Predicted)
	}
	if e.Audited {
		b = append(append(b, sp.audited...), "true"...)
	}
	return append(b, sp.end...)
}

// appendExperiments appends an experiments array: null for a nil slice and
// [] for an empty one, as encoding/json tells them apart.
func appendExperiments(b []byte, exps []ExperimentOutcome, sp *spelling) []byte {
	if exps == nil {
		return append(b, "null"...)
	}
	if len(exps) == 0 {
		return append(b, "[]"...)
	}
	for i := range exps {
		if i == 0 {
			b = append(b, sp.open...)
		} else {
			b = append(b, sp.sep...)
		}
		b = appendExperiment(b, &exps[i], sp)
	}
	return append(b, sp.close...)
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
	b = appendExperiments(b[:len(b)-len(outcomeTail)], o.Experiments, &indented)
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

// AppendJSON appends the shard output exactly as json.Marshal encodes it.
// The journal asks its record data for this method, so a shard_completed
// record is laid by the encoder the outcome is.
func (o ShardOutput) AppendJSON(b []byte) []byte {
	b = strconv.AppendUint(append(b, `{"golden_cycles":`...), o.GoldenCycles, 10)
	b = strconv.AppendBool(append(b, `,"checkpointed":`...), o.Checkpointed)
	b = append(b, `,"indices":`...)
	if o.Indices == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, idx := range o.Indices {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(idx), 10)
		}
		b = append(b, ']')
	}
	b = appendExperiments(append(b, `,"experiments":`...), o.Experiments, &compact)
	return append(b, '}')
}
