package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/store"
)

// recordSpec is a small transient campaign: every experiment's at_cycle
// comes from the expansion, so a rebuilt shard names all four of the
// fields the record leaves out.
var recordSpec = Request{Workload: "rspeed", Iterations: 2, Target: "iu", Models: []string{"seu", "set"},
	PulseCycles: 2, Nodes: 4, Seed: 3, InjectAtFraction: 0.5}

// recordExpansion is recordSpec's expansion, as the shard pool makes it.
func recordExpansion(tb testing.TB) []fault.Experiment {
	tb.Helper()
	n, err := recordSpec.Normalize()
	if err != nil {
		tb.Fatal(err)
	}
	r, err := engineFor(context.Background(), n, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return experimentsFor(nil, r, n)
}

// TestShardCompletedFrame holds the journal line of a shard_completed
// record — laid by shardRecord.AppendJSON through the journal's own frame
// encoder — to json.Marshal of the record struct, framed as the journal
// frames every record: behind the payload's checksum.
func TestShardCompletedFrame(t *testing.T) {
	key, err := recordSpec.Key()
	if err != nil {
		t.Fatal(err)
	}
	recs := []*shardRecord{
		{GoldenCycles: 9616, Checkpointed: true, Start: 3, End: 5,
			Outcomes: []string{"no-effect", "hang"}, Latencies: []int64{-1, 1 << 40}, Cycles: []uint64{12, ^uint64(0)}},
		{GoldenCycles: 1, Start: 0, End: 3,
			Outcomes:  []string{"sdc", `a<b>"\` + "\xff", ""},
			Latencies: []int64{0, -1 << 63, 7}, Cycles: []uint64{0, 1, 2},
			Engines: []string{"iss", "rtl", "rtl"}, Predicted: []string{"", "sdc", "line sep"}, Audited: []bool{false, true, false}},
		{Start: 0, End: 1, Outcomes: []string{"sdc"}, Latencies: []int64{3}, Cycles: []uint64{4}, Audited: []bool{true}},
		{Outcomes: []string{}, Latencies: []int64{}, Cycles: []uint64{}},
		{},
	}
	path := filepath.Join(t.TempDir(), journalName)
	j, _, err := store.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i, rec := range recs {
		if err := j.AppendSoon(recShardCompleted, key, rec); err != nil { // by pointer, as the coordinator hands it over
			t.Fatal(err)
		}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		// Appended, not overwritten: the journal lays it behind a frame's head.
		if got := rec.AppendJSON([]byte("head ")); !bytes.Equal(got, append([]byte("head "), data...)) {
			t.Errorf("record %d: AppendJSON lays\n%s\nwant json.Marshal's\n%s", i, got, data)
		}
		payload, err := json.Marshal(store.Record{Seq: int64(i + 1), Type: recShardCompleted, Key: key, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(payload), payload)...)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journal holds\n%q\nwant\n%q", got, want)
	}
}

// setField gives an experiment field a value the engine does not produce.
func setField(t *testing.T, f reflect.Value) {
	t.Helper()
	switch v := f.Addr().Interface().(type) {
	case *string:
		*v = "x<y"
	case *int64:
		*v = -7
	case *uint64:
		*v = 7
	case **uint64:
		*v = new(uint64)
	case *bool:
		*v = true
	default:
		t.Fatalf("setField: no value for a %s: teach this test (and shardRecord) the new field type", f.Type())
	}
}

// TestShardRecordCoversEveryField: a real shard journaled and rebuilt over
// the expansion is the shard, and each experiment field is either carried
// by the record or rebuilt from the expansion — Node, Model, Unit and
// AtCycle, the four the expansion names. A field added to ExperimentOutcome
// that is neither fails here instead of vanishing from recovered campaigns.
func TestShardRecordCoversEveryField(t *testing.T) {
	exps := recordExpansion(t)
	rng := ShardRange{Start: 2, End: 6}
	so, err := ExecuteShard(context.Background(), recordSpec, rng.Start, rng.End, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rec shardRecord // one record for every round trip, as a coordinator keeps it
	roundTrip := func(out *ShardOutput) ShardOutput {
		t.Helper()
		back, ok := decodeShardRecord(rec.set(rng, out).AppendJSON(nil))
		if !ok {
			t.Fatalf("the record of a complete shard does not decode: %+v", rec)
		}
		got, ok := back.rebuild(exps)
		if !ok {
			t.Fatalf("a record of [%d,%d) does not rebuild over %d experiments", rng.Start, rng.End, len(exps))
		}
		return got
	}
	if got := roundTrip(so); !reflect.DeepEqual(got, *so) {
		t.Fatalf("rebuilt shard\n%+v\nwant the shard that ran\n%+v", got, *so)
	}
	rebuilt := map[string]bool{"Node": true, "Model": true, "Unit": true, "AtCycle": true}
	et := reflect.TypeOf(ExperimentOutcome{})
	for i := 0; i < et.NumField(); i++ {
		name := et.Field(i).Name
		out := *so
		out.Experiments = slices.Clone(so.Experiments)
		set := reflect.ValueOf(&out.Experiments[1]).Elem().Field(i)
		setField(t, set)
		got := reflect.ValueOf(roundTrip(&out).Experiments[1]).Field(i).Interface()
		if rebuilt[name] {
			if want := reflect.ValueOf(so.Experiments[1]).Field(i).Interface(); !reflect.DeepEqual(got, want) {
				t.Errorf("ExperimentOutcome.%s rebuilt as %v, want the expansion's %v", name, got, want)
			}
		} else if want := set.Interface(); !reflect.DeepEqual(got, want) {
			t.Errorf("ExperimentOutcome.%s is neither carried by the shard record nor rebuilt from the expansion: %v came back as %v", name, want, got)
		}
	}
}

// FuzzShardRecord: arbitrary shard_completed data goes through replay's
// decoding and, accepted, through the rebuild over a real expansion. Neither
// ever panics; an accepted record re-lays as json.Marshal does and re-reads
// to the same bytes (what the open-time compaction writes back); and a
// rebuilt one is exactly End−Start experiments, the expansion's own from
// Start on, carrying the record's results.
func FuzzShardRecord(f *testing.F) {
	exps := recordExpansion(f)
	so, err := ExecuteShard(context.Background(), recordSpec, 1, 4, 1, nil)
	if err != nil {
		f.Fatal(err)
	}
	var rec shardRecord
	f.Add(rec.set(ShardRange{Start: 1, End: 4}, so).AppendJSON(nil))
	old, err := json.Marshal(so) // the record as earlier releases wrote it
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	f.Add([]byte(`{"golden_cycles":1,"start":0,"end":2,"outcomes":["hang","sdc"],"latencies":[5,6],"cycles":[7,8],"engines":["iss","rtl"],"predicted":["","hang"],"audited":[false,true]}`))
	f.Add([]byte(fmt.Sprintf(`{"start":%d,"end":%d,"outcomes":["hang","sdc"],"latencies":[5,6],"cycles":[7,8]}`, len(exps)-1, len(exps)+1)))
	f.Add([]byte(`{"start":0,"end":2,"outcomes":["hang"],"latencies":[5],"cycles":[7]}`))
	f.Add([]byte(`{"start":0,"end":1,"outcomes":["hang"],"latencies":[5],"cycles":[7],"engines":[],"audited":[true,false]}`))
	f.Add([]byte(`{"start":-1,"end":0,"outcomes":["hang"],"latencies":[5],"cycles":[7]}`))
	f.Add([]byte(`{"start":9223372036854775807,"end":-9223372036854775808}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, ok := decodeShardRecord(data)
		if !ok {
			return
		}
		n := rec.End - rec.Start
		laid := rec.AppendJSON(nil)
		if want, err := json.Marshal(&rec); err != nil || !bytes.Equal(laid, want) {
			t.Fatalf("accepted record lays\n%s\nwant json.Marshal's\n%s (%v)", laid, want, err)
		}
		again, ok := decodeShardRecord(laid)
		if !ok {
			t.Fatalf("accepted record re-laid as %s is rejected", laid)
		}
		if relaid := again.AppendJSON(nil); !bytes.Equal(relaid, laid) {
			t.Fatalf("re-read record lays\n%s\nwant\n%s", relaid, laid)
		}
		out, ok := rec.rebuild(exps)
		if !ok {
			if rec.End <= len(exps) {
				t.Fatalf("record of [%d,%d) rejected inside a campaign of %d", rec.Start, rec.End, len(exps))
			}
			return
		}
		if rec.Start < 0 || rec.End > len(exps) || n <= 0 || len(out.Experiments) != n || len(out.Indices) != n {
			t.Fatalf("record of [%d,%d) over %d experiments rebuilt %d experiments at %d indices",
				rec.Start, rec.End, len(exps), len(out.Experiments), len(out.Indices))
		}
		for k, i := range out.Indices {
			e, eo := &exps[i], &out.Experiments[k]
			if i != rec.Start+k || eo.Node != e.Node.String() || eo.Model != e.Model.String() || eo.Unit != e.Node.Unit.String() ||
				(eo.AtCycle == nil) == e.Model.Transient() || eo.AtCycle != nil && *eo.AtCycle != e.AtCycle || eo.Outcome != rec.Outcomes[k] || eo.Latency != rec.Latencies[k] || eo.Cycles != rec.Cycles[k] {
				t.Fatalf("rebuilt experiment %d at index %d is %+v", k, i, *eo)
			}
		}
	})
}
