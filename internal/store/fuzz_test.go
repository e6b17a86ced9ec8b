package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// frame encodes one record payload in the journal's on-disk framing.
func frame(payload []byte) []byte {
	return []byte(fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(payload), payload))
}

// FuzzJournalReplay feeds arbitrary bytes through the WAL replay path
// and asserts its two crash-recovery contracts:
//
//  1. Replay never panics and never errors on in-memory input —
//     arbitrary corruption (a torn tail, a bit flip, garbage) is
//     always resolved to a longest valid prefix.
//  2. Truncation to that prefix is idempotent: replaying data[:valid]
//     reports the same records, the same valid length, and no torn
//     tail. This is exactly what OpenJournal relies on when it
//     truncates a torn file and reopens it after the next crash.
//
// The seed corpus covers the interesting frame shapes: valid records,
// torn tails with and without trailing newlines, checksum mismatches,
// short lines, and valid JSON behind a bad frame.
func FuzzJournalReplay(f *testing.F) {
	rec1 := frame([]byte(`{"seq":1,"type":"job.created","key":"k1"}`))
	rec2 := frame([]byte(`{"seq":2,"type":"job.done","key":"k1","data":{"pf":0.5}}`))

	f.Add([]byte{})
	f.Add(rec1)
	f.Add(append(append([]byte{}, rec1...), rec2...))
	f.Add(append(append([]byte{}, rec1...), rec2[:len(rec2)-5]...)) // torn mid-record
	f.Add(append(append([]byte{}, rec1...), "deadbeef {}\n"...))    // checksum mismatch
	f.Add([]byte("00000000 \n"))                                    // frame too short
	f.Add([]byte("not a journal at all"))
	f.Add([]byte("zzzzzzzz {\"seq\":1}\n")) // non-hex checksum
	// Spellings of a correct checksum (0x00000ceb) that only a lenient
	// scanner reads as one: blanks for zeros, a 0x prefix, capitals.
	small := `{"seq":480595,"type":"t"}`
	f.Add([]byte("00000ceb " + small + "\n"))
	f.Add([]byte("     ceb " + small + "\n"))
	f.Add([]byte("0x000ceb " + small + "\n"))
	f.Add([]byte("00000CEB " + small + "\n"))
	corrupt := append([]byte{}, rec1...)
	corrupt[len(corrupt)/2] ^= 0x40 // bit flip inside the payload
	f.Add(append(corrupt, rec2...))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, torn, err := replayAll(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("replayAll errored on in-memory input: %v", err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid offset %d out of range [0,%d]", valid, len(data))
		}
		if !torn && valid != int64(len(data)) {
			t.Fatalf("no torn tail reported but valid=%d != len=%d", valid, len(data))
		}

		// Idempotence: replaying the valid prefix — what OpenJournal
		// leaves on disk after truncation — must be a clean full replay
		// of the same records.
		recs2, valid2, torn2, err := replayAll(bytes.NewReader(data[:valid]))
		if err != nil {
			t.Fatalf("replay of valid prefix errored: %v", err)
		}
		if torn2 {
			t.Fatalf("replay of valid prefix still reports a torn tail")
		}
		if valid2 != valid {
			t.Fatalf("replay of valid prefix shrank it: %d -> %d", valid, valid2)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("replay of valid prefix lost records: %d -> %d", len(recs), len(recs2))
		}
		for i := range recs {
			a, _ := json.Marshal(recs[i])
			b, _ := json.Marshal(recs2[i])
			if !bytes.Equal(a, b) {
				t.Fatalf("record %d changed across re-replay: %s vs %s", i, a, b)
			}
		}
	})
}

// entry encodes a payload as the result file Put writes for it.
func entry(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append([]byte(resultHeader+" "+hex.EncodeToString(sum[:])+"\n"), payload...)
}

// FuzzStoreFile plants arbitrary bytes where a result entry belongs — found
// by Open, as after a crash or bit rot at rest, and again behind an open
// store's back, as bit rot since — and holds the store to its one promise:
// what Get returns verified. An entry is served only if the file is, byte
// for byte, what Put writes for the payload served; anything else — a
// flipped bit, a truncation, a header with a stray blank or trailing
// garbage — is a miss, is deleted, and leaves the key free to be Put again:
// a corrupt result is re-executed, never served and never wedged.
func FuzzStoreFile(f *testing.F) {
	good := entry([]byte("{\n  \"pf\": 0.25\n}\n"))
	f.Add(good)
	f.Add(entry(nil))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-3] ^= 0x10
	f.Add(flipped)
	f.Add(good[:len(good)-4])       // truncated payload
	f.Add(good[:headerLen-1])       // header without its newline
	f.Add(good[:len(resultHeader)]) // tag alone
	f.Add(bytes.Replace(good, []byte("\n"), []byte(" trailing\n"), 1))
	f.Add(bytes.Replace(good, []byte(" "), []byte("  "), 1))
	f.Add(bytes.Replace(good, []byte("v1 "), []byte("v1 0x"), 1))
	f.Add([]byte(strings.ToUpper(string(good[:headerLen])) + string(good[headerLen:])))
	f.Add(bytes.Replace(good, []byte("-v1"), []byte("-v2"), 1))
	f.Add([]byte{})

	key := keyFor("fuzzed")
	fresh := []byte("re-executed")
	f.Fuzz(func(t *testing.T, file []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, key)
		// check holds one lookup of the planted file to the promise, then
		// proves the key is not wedged.
		check := func(s *Store, where string) {
			got, ok := s.Get(key)
			if ok {
				if !bytes.Equal(entry(got), file) {
					t.Fatalf("%s: served %q from a file that is not its encoding: %q", where, got, file)
				}
				return
			}
			if _, err := os.Stat(path); err == nil {
				t.Fatalf("%s: rejected entry left on disk", where)
			}
			if err := s.Put(key, fresh); err != nil {
				t.Fatalf("%s: Put after a rejected entry: %v", where, err)
			}
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, fresh) {
				t.Fatalf("%s: the re-put entry reads back %q, %v", where, got, ok)
			}
		}

		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		check(s, "found by Open")

		// The same bytes replacing what is by now a committed entry of an
		// open store: the planted file if it was served, the re-put one if not.
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		check(s, "found by Get")
	})
}
