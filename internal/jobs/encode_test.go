package jobs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"testing"
	"unicode/utf8"

	"repro/internal/jobs"
)

// The outcome's experiments array is laid by hand (encode.go). Everything
// below holds those bytes to encoding/json, which shares none of that code
// and is what every decoder of them runs.

// oracleOutcome is the outcome encoding as it was always made.
func oracleOutcome(t *testing.T, o *jobs.Outcome) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(o); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkEncoding holds one outcome's encoding to the oracle.
func checkEncoding(t *testing.T, name string, o *jobs.Outcome) {
	t.Helper()
	if got, want := encode(t, o), oracleOutcome(t, o); !bytes.Equal(got, want) {
		t.Errorf("%s: outcome encoding differs from encoding/json's (%d vs %d bytes)%s", name, len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	from := max(i-30, 0)
	return fmt.Sprintf("\n at byte %d: got  %q\n            want %q", i, got[from:min(i+30, len(got))], want[from:min(i+30, len(want))])
}

// hostile are strings the plain-ASCII fast path must refuse, one reason
// each, and two it must take.
var hostile = []string{
	"iu.rf.regs[3]", "", `a"b`, `a\b`, "<script>", "a>b", "a&b", "tab\there", "nul\x00", "del\x7f",
	"line sep", "par sep", "é", "\xff\xfe", "trunc\xc3", "日本", "bell\a", "\n",
}

func TestOutcomeEncodingMatchesEncodingJSON(t *testing.T) {
	ctx := context.Background()
	stopped := shardSpec("iu")
	stopped.Nodes, stopped.Epsilon = 0, 0.1
	for _, tc := range []struct {
		name  string
		req   jobs.Request
		check func(t *testing.T, o *jobs.Outcome)
	}{
		{"permanent", shardSpec("cmem"), nil},
		{"seu+set", transientSpec(), func(t *testing.T, o *jobs.Outcome) {
			// An instant sampled at cycle 0 is emitted, not omitted.
			if o.Experiments[0].AtCycle == nil {
				t.Fatal("transient experiment without at_cycle")
			}
			*o.Experiments[0].AtCycle = 0
			if !bytes.Contains(encode(t, o), []byte(`"at_cycle": 0`)) {
				t.Error("an at_cycle of 0 is not encoded")
			}
		}},
		{"hybrid", hybridSmall, func(t *testing.T, o *jobs.Outcome) {
			var engines, predicted, audited int
			for _, e := range o.Experiments {
				if e.Engine != "" {
					engines++
				}
				if e.Predicted != "" {
					predicted++
				}
				if e.Audited {
					audited++
				}
			}
			if o.Hybrid == nil || engines != len(o.Experiments) || predicted == 0 || audited == 0 {
				t.Fatalf("hybrid campaign exercises engine/predicted/audited %d/%d/%d of %d", engines, predicted, audited, len(o.Experiments))
			}
		}},
		{"early-stopped", stopped, func(t *testing.T, o *jobs.Outcome) {
			if !o.EarlyStopped || o.Requested <= o.Injections {
				t.Fatalf("campaign did not stop early (%d of %d)", o.Injections, o.Requested)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := jobs.Execute(ctx, tc.req, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.check != nil {
				tc.check(t, o)
			}
			checkEncoding(t, "whole", o)
		})
	}

	t.Run("hand-built", func(t *testing.T) {
		zero, big := uint64(0), ^uint64(0)
		var exps []jobs.ExperimentOutcome
		for i, s := range hostile {
			e := jobs.ExperimentOutcome{Node: s, Model: "sa0", Unit: "u", Outcome: "no-effect", Latency: int64(i) - 3, Cycles: uint64(i)}
			switch i % 4 {
			case 1:
				e.Model, e.AtCycle = s, &zero
			case 2:
				e.Unit, e.Engine, e.Predicted, e.AtCycle = s, s, "hang", &big
			case 3:
				e.Outcome, e.Predicted, e.Audited, e.Engine = s, s, true, "rtl"
			}
			exps = append(exps, e)
		}
		exps = append(exps, jobs.ExperimentOutcome{Latency: -1 << 63, Cycles: big})
		base, err := jobs.Execute(ctx, small, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			exps []jobs.ExperimentOutcome
		}{
			{"hostile strings", exps},
			{"one", exps[:1]},
			{"nil", nil},
			{"empty", []jobs.ExperimentOutcome{}},
		} {
			o := *base
			o.Experiments = tc.exps
			checkEncoding(t, tc.name, &o)
		}
		checkEncoding(t, "zero values", &jobs.Outcome{})
	})
}

// set gives the field a value its zero value does not encode as.
func set(t *testing.T, f reflect.Value) {
	switch v := f.Addr().Interface().(type) {
	case *string:
		*v = "x<y"
	case *int64:
		*v = -7
	case *uint64:
		*v = 7
	case **uint64:
		*v = new(uint64) // the zero it points at must still be written
	case *bool:
		*v = true
	default:
		t.Fatalf("set: no value for a %s: teach this test (and encode.go) the new field type", f.Type())
	}
}

// TestEncoderCoversEveryField sets every field of an experiment alone and
// requires the hand-laid bytes to move exactly as encoding/json's do. The
// field count is pinned: a field added to ExperimentOutcome without
// teaching encode.go fails here, not as a content address that no longer
// matches its bytes. (Whether the journal's shard record keeps the field is
// TestShardRecordCoversEveryField's.)
func TestEncoderCoversEveryField(t *testing.T) {
	if n := reflect.TypeOf(jobs.ExperimentOutcome{}).NumField(); n != 10 {
		t.Errorf("ExperimentOutcome has %d fields, appendExperiment lays 10", n)
	}
	ot := reflect.TypeOf(jobs.Outcome{})
	if last := ot.Field(ot.NumField() - 1).Name; last != "Experiments" {
		t.Errorf("Outcome's last field is %s: encodeOutcome puts the experiments in place of the tail", last)
	}

	wrap := func(e jobs.ExperimentOutcome) *jobs.Outcome {
		return &jobs.Outcome{Experiments: []jobs.ExperimentOutcome{e}}
	}
	base := wrap(jobs.ExperimentOutcome{})
	et := reflect.TypeOf(jobs.ExperimentOutcome{})
	for i := 0; i < et.NumField(); i++ {
		var e jobs.ExperimentOutcome
		set(t, reflect.ValueOf(&e).Elem().Field(i))
		o := wrap(e)
		checkEncoding(t, et.Field(i).Name, o)
		if bytes.Equal(encode(t, o), encode(t, base)) {
			t.Errorf("setting ExperimentOutcome.%s changes no byte of the encoding", et.Field(i).Name)
		}
	}
}

// TestEncodeOutcomeAllocations: the head's trip through encoding/json and
// one buffer, nothing per experiment (encoding/json allocated per field it
// boxed and rescanned the whole outcome to indent it).
func TestEncodeOutcomeAllocations(t *testing.T) {
	o, err := jobs.Execute(context.Background(), shardSpec("iu"), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Experiments) < 64 {
		t.Fatalf("only %d experiments", len(o.Experiments))
	}
	one := *o
	one.Experiments = o.Experiments[:1]
	allocs := func(o *jobs.Outcome) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := jobs.EncodeOutcome(io.Discard, o); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Not exactly equal: encoding/json pools its buffers, and under the race
	// detector a sync.Pool drops some at random.
	if all, head := allocs(o), allocs(&one); all > head+8 || all > 64 {
		t.Errorf("EncodeOutcome allocates %.0f times for %d experiments and %.0f for one: want the same handful", all, len(o.Experiments), head)
	}
}

// FuzzOutcomeEncoding: arbitrary field bytes encode as encoding/json
// encodes them, and decode back to the value they came
// from (strings that are not UTF-8 excepted: JSON cannot carry them, and
// both encoders replace the same bytes).
func FuzzOutcomeEncoding(f *testing.F) {
	f.Add("iu.rf.regs[3]", "sa0", "regfile", "no-effect", "", "", int64(-1), uint64(4808), uint64(0), uint8(0), uint8(1))
	f.Add("iu.psr.tbr", "seu", "psr", "hang", "rtl", "sdc", int64(12), uint64(96160), uint64(0), uint8(3), uint8(3))
	f.Add(`a"b\c`, "<&>", " ", "\x7f\x00", "\xff", "é", int64(-1<<63), ^uint64(0), ^uint64(0), uint8(1), uint8(2))
	f.Add("", "", "", "", "", "", int64(0), uint64(0), uint64(0), uint8(4), uint8(0))
	f.Add("", "", "", "", "", "", int64(0), uint64(0), uint64(0), uint8(8), uint8(0))
	f.Fuzz(func(t *testing.T, node, model, unit, outcome, engine, predicted string, latency int64, cycles, at uint64, flags, n uint8) {
		e := jobs.ExperimentOutcome{Node: node, Model: model, Unit: unit, Outcome: outcome, Latency: latency, Cycles: cycles,
			Engine: engine, Predicted: predicted, Audited: flags&2 != 0}
		if flags&1 != 0 {
			e.AtCycle = &at
		}
		var exps []jobs.ExperimentOutcome
		switch {
		case flags&4 != 0: // nil
		case flags&8 != 0:
			exps = []jobs.ExperimentOutcome{}
		default:
			for i := 0; i <= int(n%4); i++ {
				exps = append(exps, e)
				e.Node, e.Predicted, e.Cycles = e.Predicted, e.Node, e.Cycles+1
			}
		}
		o := &jobs.Outcome{GoldenCycles: cycles, Checkpointed: flags&16 != 0, Experiments: exps}
		checkEncoding(t, "fuzzed", o)

		for _, s := range []string{node, model, unit, outcome, engine, predicted} {
			if !utf8.ValidString(s) {
				return
			}
		}
		var backO jobs.Outcome
		if err := json.Unmarshal(encode(t, o), &backO); err != nil {
			t.Fatalf("the outcome does not decode: %v", err)
		}
		if !reflect.DeepEqual(backO.Experiments, exps) {
			t.Errorf("outcome experiments decode to\n%+v\nwant\n%+v", backO.Experiments, exps)
		}
	})
}
