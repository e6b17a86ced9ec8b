package jobs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzRequestNormalize feeds Normalize whatever a client can POST: the
// bytes are decoded as the server's submit handler decodes a campaign
// request, unknown fields refused. Every request Normalize accepts must
// come out canonical — normalizing it again changes nothing — and keep
// its content address across a JSON round trip and a second Normalize,
// which is what a shard lease or a journal replay does to it.
func FuzzRequestNormalize(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"rspeed","iterations":2,"models":["sa0","sa1","open"],"nodes":256,"seed":999,"inject_at_fraction":0.5}`,
		`{"workload":"puwmod","target":"cmem","engine":"iss","models":["seu","set"],"pulse_cycles":2,"nodes":48,"seed":7}`,
		`{"workload":"puwmod","target":"iu","engine":"hybrid","rtl_audit":0.1,"confidence":0.9,"nodes":48,"seed":7}`,
		`{"workload":"rspeed","engine":"hybrid","rtl_audit":1,"nodes":48,"seed":7}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		n, err := req.Normalize()
		if err != nil {
			return
		}
		again, err := n.Normalize()
		if err != nil || !reflect.DeepEqual(again, n) {
			t.Fatalf("Normalize is not idempotent on %s:\nonce  %+v\ntwice %+v (err %v)", data, n, again, err)
		}
		key, err := keyOf(n)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		var back Request
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("re-decoding %s: %v", wire, err)
		}
		if back, err = back.Normalize(); err != nil {
			t.Fatalf("the round trip %s of an accepted request is refused: %v", wire, err)
		}
		if k, err := keyOf(back); err != nil || k != key {
			t.Fatalf("content address moved across a JSON round trip of %s: %s, then %s (err %v)", data, key, k, err)
		}
	})
}
