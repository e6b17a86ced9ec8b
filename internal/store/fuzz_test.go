package store

import (
	"bytes"
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

// logRecord encodes a payload as the outcome log record Put appends for it.
func logRecord(key string, payload []byte) []byte {
	return append(appendHeader(nil, key, uint64(len(payload)), crc32.Checksum(payload, castagnoli)), payload...)
}

// FuzzStoreFile plants arbitrary bytes as the store's one file, the outcome
// log — as the whole log, found by Open after a crash or bit rot at rest,
// and appended behind records Put committed, as a torn or garbled tail —
// and holds the store to its promises: Open never fails on what the log
// holds; a payload it serves is byte for byte what Put laid down for it
// (a record found whole in the planted bytes, or a committed one); the
// records before the damage are all still served; reopening the log Open
// truncated finds it as it was left; and a key rejected along the way can be
// Put again and reads back, then and after the next Open — a corrupt result
// is re-executed, never served and never wedged.
func FuzzStoreFile(f *testing.F) {
	key := keyFor("fuzzed")
	good := logRecord(key, []byte("{\n  \"pf\": 0.25\n}\n"))
	other := logRecord(keyFor("other"), []byte("{}\n"))
	flipped := bytes.Clone(good)
	flipped[len(flipped)-3] ^= 0x10
	f.Add(good)
	f.Add(logRecord(key, nil))
	f.Add(flipped)            // payload bit flip, header intact
	f.Add(good[:len(good)-4]) // torn payload
	f.Add(good[:headerLen-1]) // header without its newline
	f.Add(good[:len(logTag)]) // tag alone
	f.Add(bytes.Replace(good, []byte(" "), []byte("  "), 1))
	f.Add(bytes.Replace(good, []byte("-v2"), []byte("-v1"), 1))
	f.Add([]byte(strings.ToUpper(string(good[:headerLen])) + string(good[headerLen:])))
	f.Add(append(bytes.Clone(flipped), other...)) // a skipped record, then a good one
	f.Add(append(bytes.Clone(good), good...))     // one key twice
	f.Add(append(bytes.Clone(other), "trailing garbage"...))
	f.Add([]byte{})

	committed := map[string][]byte{keyFor("first"): []byte("first\n"), keyFor("second"): []byte("second\n")}
	fresh := []byte("re-executed")
	f.Fuzz(func(t *testing.T, planted []byte) {
		for _, behind := range []map[string][]byte{nil, committed} {
			dir := t.TempDir()
			if behind != nil {
				s := openStore(t, dir)
				for _, k := range []string{keyFor("first"), keyFor("second")} {
					if err := s.Put(k, behind[k]); err != nil {
						t.Fatal(err)
					}
				}
				s.Close()
			}
			lf, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := lf.Write(planted); err != nil {
				t.Fatal(err)
			}
			lf.Close()

			s := openStore(t, dir)
			served := map[string][]byte{}
			for k := range s.index {
				got, ok := s.Get(k)
				if !ok {
					t.Fatalf("indexed key %s is not served", k)
				}
				if want, ok := behind[k]; ok && !bytes.Equal(got, want) || !ok && !bytes.Contains(planted, logRecord(k, got)) {
					t.Fatalf("served %q under %s, which no Put laid down", got, k)
				}
				served[k] = got
			}
			for k := range behind {
				if served[k] == nil {
					t.Fatalf("committed key %s lost to the bytes behind it", k)
				}
			}

			// The truncated log reopens as it was left.
			size := logSize(t, dir)
			s.Close()
			s = openStore(t, dir)
			if len(s.index) != len(served) || logSize(t, dir) != size {
				t.Fatalf("reopen: %d entries of %d, %d of %d bytes", len(s.index), len(served), logSize(t, dir), size)
			}
			for k, want := range served {
				if got, ok := s.Get(k); !ok || !bytes.Equal(got, want) {
					t.Fatalf("reopen: %s reads %q, %v; want %q", k, got, ok, want)
				}
			}

			// A rejected key is not wedged.
			want, entries := served[key], len(served)
			if want == nil {
				if err := s.Put(key, fresh); err != nil {
					t.Fatalf("Put after a rejected record: %v", err)
				}
				want, entries = fresh, entries+1
			}
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, want) {
				t.Fatalf("%s reads back %q, %v; want %q", key, got, ok, want)
			}
			s.Close()
			s = openStore(t, dir)
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, want) || s.Len() != entries {
				t.Fatalf("after the re-put and a reopen: %s reads %q, %v, %d of %d entries", key, got, ok, s.Len(), entries)
			}
		}
	})
}
