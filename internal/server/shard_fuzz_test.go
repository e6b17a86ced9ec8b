package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/server"
)

// shardOps are the shard protocol's POST endpoints, each with a fresh value
// of the body type its handler decodes into.
var shardOps = []struct {
	name string
	body func() any
}{
	{"lease", func() any { return &struct{ Worker string }{} }},
	{"progress", func() any { return &struct{ Done, Failures int }{} }},
	{"complete", func() any { return &jobs.ShardOutput{} }},
	{"fail", func() any { return &struct{ Error string }{} }},
}

// fuzzShardReq is a 4-experiment campaign of two 2-experiment shards.
var fuzzShardReq = jobs.Request{Workload: "excerptA", Target: "iu", Models: []string{"sa1"}, Nodes: 4, Seed: 1, InjectAtFraction: 0.3}

// FuzzShardBody POSTs arbitrary bytes to a shard endpoint of a daemon whose
// one live campaign runs only on remote shards, under the lease a worker
// holds on its first shard or under one nobody holds. No body may panic a
// handler or get a 5xx answer, and one that does not decode — as the
// handler decodes it — is answered 400 and folds nothing: the pool's ledger
// and the job's progress are what they were.
func FuzzShardBody(f *testing.F) {
	// An honest worker's report of the first shard, as the seed a complete
	// body mutates from.
	out, err := jobs.ExecuteShard(context.Background(), fuzzShardReq, 0, 2, 1, nil)
	if err != nil {
		f.Fatal(err)
	}
	honest, err := json.Marshal(out)
	if err != nil {
		f.Fatal(err)
	}
	for op, bodies := range [][]string{
		{`{"worker":"w1"}`, `{}`, `{"worker":7}`, `{bad`},
		{`{"done":1,"failures":0}`, `{"done":-5,"failures":99}`, `{"done":"1"}`, `[]`},
		{string(honest), `{"indices":[0,0],"experiments":[{},{}]}`, `{"indices":[1],"experiments":[]}`, `{"golden_cycles":-1}`},
		{`{"error":"boom"}`, `{"error":null}`, `null`, ``},
	} {
		for _, b := range bodies {
			f.Add(uint8(op), true, []byte(b))
			f.Add(uint8(op), false, []byte(b))
		}
	}
	f.Fuzz(func(t *testing.T, op uint8, held bool, body []byte) {
		mgr := jobs.NewManager(jobs.ManagerOptions{Concurrency: 1, Shards: 2, ShardLocalWorkers: -1})
		defer mgr.Close()
		h := server.New(mgr).Handler()
		st, _, err := mgr.Submit(fuzzShardReq)
		if err != nil {
			t.Fatal(err)
		}
		pool := mgr.ShardPool()
		var l *jobs.ShardLease
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			var ok bool
			if l, ok = pool.Lease("fuzz"); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the campaign never offered a shard")
			}
		}
		lease := "nobody-holds-this"
		if held {
			lease = l.Lease
		}
		o := shardOps[int(op)%len(shardOps)]
		url := "/api/v1/shards/" + lease + "/" + o.name
		if o.name == "lease" {
			url = "/api/v1/shards/lease"
		}

		ledger, before := pool.Stats(), progressOf(t, mgr, st.ID)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q: HTTP %d %s", url, body, rec.Code, rec.Body)
		}
		if json.NewDecoder(bytes.NewReader(body)).Decode(o.body()) == nil {
			return
		}
		if rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s %q, which does not decode: HTTP %d, want 400", url, body, rec.Code)
		}
		if after := pool.Stats(); !reflect.DeepEqual(after, ledger) {
			t.Errorf("POST %s %q, which does not decode, moved the pool's ledger: %+v, was %+v", url, body, after, ledger)
		}
		if after := progressOf(t, mgr, st.ID); after != before {
			t.Errorf("POST %s %q, which does not decode, moved the job's progress: %+v, was %+v", url, body, after, before)
		}
	})
}

// progressOf returns a job's progress snapshot.
func progressOf(t *testing.T, mgr *jobs.Manager, id string) jobs.Progress {
	t.Helper()
	st, err := mgr.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return st.Progress
}
