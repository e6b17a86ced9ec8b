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
	"sync"
	"sync/atomic"
	"testing"
)

func keyFor(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := keyFor("campaign-a")
	payload := []byte(`{"pf":0.25}` + "\n")
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v; want stored payload", got, ok)
	}
	if _, ok := s.Get(keyFor("never-stored")); ok {
		t.Fatal("Get hit for a key never stored")
	}
	// Re-putting the same content address is a no-op, not an error.
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}

	// The commit must survive a reopen — that is the whole point.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok = s2.Get(k)
	if !ok || string(got) != string(payload) {
		t.Fatalf("after reopen: Get = %q, %v; want stored payload", got, ok)
	}
}

func TestStoreRejectsInvalidKeys(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"",
		"short",
		strings.Repeat("g", 64),      // non-hex
		strings.ToUpper(keyFor("x")), // uppercase hex is not canonical
		"../" + keyFor("x")[:61],     // path traversal shape
		keyFor("x") + "aa",           // too long
		strings.Repeat("a", 63) + string(rune(0)), // embedded NUL
	} {
		if err := s.Put(bad, []byte("p")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", bad)
		}
		if _, ok := s.Get(bad); ok {
			t.Errorf("Get(%q) hit on an invalid key", bad)
		}
	}
}

// openStore opens the store under dir, to be closed at the end of the test
// if the test has not closed it itself.
func openStore(t testing.TB, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// logSize is the byte length of the outcome log under dir.
func logSize(t testing.TB, dir string) int {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	return int(fi.Size())
}

// TestStoreOpenDiscardsDamage covers the debris Open must clean out of the
// log, and what it must leave alone. A record whose header verifies but
// whose payload does not is skipped, and the records after it are served; a
// header that is torn or does not verify ends the log, which is truncated
// there. Files beside the log — a previous format's result files and temp
// files, anything foreign — are neither read nor deleted. Each case then
// appends a record where the log now ends and reopens it.
func TestStoreOpenDiscardsDamage(t *testing.T) {
	keys := []string{keyFor("first"), keyFor("second"), keyFor("third")}
	payloads := [][]byte{[]byte(`{"n":1}`), []byte(`{"n":2}`), []byte(`{"n":3}`)}
	r1, r2, r3 := logRecord(keys[0], payloads[0]), logRecord(keys[1], payloads[1]), logRecord(keys[2], payloads[2])
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	flip := func(rec []byte, i int) []byte {
		b := bytes.Clone(rec)
		b[i] ^= 0x40
		return b
	}
	v1 := sha256.Sum256(payloads[1])
	tests := []struct {
		name   string
		log    []byte
		beside string // a file next to the log, by name; its content is "beside"+name
		served []bool // per key, whether Get hits after Open
		kept   int    // bytes of the log Open keeps
	}{
		{name: "intact entry", log: cat(r1, r2, r3),
			served: []bool{true, true, true}, kept: len(r1) + len(r2) + len(r3)},
		{name: "bit rot in payload", log: cat(r1, flip(r2, len(r2)-2), r3),
			served: []bool{true, false, true}, kept: len(r1) + len(r2) + len(r3)},
		{name: "truncated payload", log: cat(r1, r2, r3[:len(r3)-3]),
			served: []bool{true, true, false}, kept: len(r1) + len(r2)},
		{name: "missing header line", log: cat(r1, r2, r3[:headerLen/2]),
			served: []bool{true, true, false}, kept: len(r1) + len(r2)},
		{name: "wrong format version", log: cat(r1, bytes.Replace(r2, []byte(logTag), []byte("repro-outcome-v1"), 1), r3),
			served: []bool{true, false, false}, kept: len(r1)},
		{name: "mid-file header corruption", log: cat(r1, flip(r2, len(logTag)+70), r3),
			served: []bool{true, false, false}, kept: len(r1)},
		{name: "trailing garbage", log: cat(r1, r2, r3, []byte("not a record\n")),
			served: []bool{true, true, true}, kept: len(r1) + len(r2) + len(r3)},
		{name: "crash-abandoned temp file", log: r1, beside: ".tmp-" + keys[1] + "-123",
			served: []bool{true, false, false}, kept: len(r1)},
		{name: "foreign file is not ours to delete", log: r1, beside: "README.txt",
			served: []bool{true, false, false}, kept: len(r1)},
		{name: "result file of the previous format", log: r1, beside: keys[1],
			served: []bool{true, false, false}, kept: len(r1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, logName), tt.log, 0o644); err != nil {
				t.Fatal(err)
			}
			beside := []byte("beside" + tt.beside)
			if tt.beside == keys[1] {
				beside = append([]byte("repro-outcome-v1 "+hex.EncodeToString(v1[:])+"\n"), payloads[1]...)
			}
			if tt.beside != "" {
				if err := os.WriteFile(filepath.Join(dir, tt.beside), beside, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			check := func(s *Store, extra int) {
				t.Helper()
				for i, k := range keys {
					got, ok := s.Get(k)
					if ok != tt.served[i] || (ok && !bytes.Equal(got, payloads[i])) {
						t.Errorf("key %d: Get = %q, %v; want served %v", i, got, ok, tt.served[i])
					}
				}
				if n := logSize(t, dir); n != tt.kept+extra {
					t.Errorf("the log holds %d bytes, want %d", n, tt.kept+extra)
				}
				if tt.beside != "" {
					if b, err := os.ReadFile(filepath.Join(dir, tt.beside)); err != nil || !bytes.Equal(b, beside) {
						t.Errorf("the file beside the log reads %q, %v", b, err)
					}
				}
			}
			s := openStore(t, dir)
			check(s, 0)

			// The log goes on where Open left it.
			k4, p4 := keyFor("fourth"), []byte(`{"n":4}`)
			if err := s.Put(k4, p4); err != nil {
				t.Fatal(err)
			}
			s.Close()
			s = openStore(t, dir)
			check(s, len(logRecord(k4, p4)))
			if got, ok := s.Get(k4); !ok || !bytes.Equal(got, p4) {
				t.Errorf("the record appended after Open reads back %q, %v", got, ok)
			}
		})
	}
}

// TestStoreGetDropsLateCorruption rots a payload behind an open store's
// back: Get misses from then on, the records around it are still served,
// and a Put of the key appends a fresh record that Get — and the next Open
// — serves.
func TestStoreGetDropsLateCorruption(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	k, k2, payload := keyFor("rots-after-open"), keyFor("stays"), []byte("payload")
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k2, []byte("other")); err != nil {
		t.Fatal(err)
	}
	// Rot sets in after Open verified the entry.
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("P"), int64(headerLen)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for i := 0; i < 2; i++ {
		if got, ok := s.Get(k); ok {
			t.Fatalf("Get %d returned a corrupt entry %q", i, got)
		}
	}
	if got, ok := s.Get(k2); !ok || string(got) != "other" {
		t.Fatalf("the record after the rot reads %q, %v", got, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after the miss, want 1", s.Len())
	}
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(k); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get after the re-put = %q, %v", got, ok)
	}
	s.Close()
	s = openStore(t, dir)
	if got, ok := s.Get(k); !ok || !bytes.Equal(got, payload) || s.Len() != 2 {
		t.Fatalf("after reopen: Get = %q, %v, %d entries", got, ok, s.Len())
	}
}

func openJournalT(t *testing.T, path string) (*Journal, []Record) {
	t.Helper()
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	return j, recs
}

func appendN(t *testing.T, j *Journal, n int, start int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := j.AppendSync("event", keyFor("job"), map[string]int{"i": start + i}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	j, recs := openJournalT(t, path)
	if len(recs) != 0 || j.TornTail() {
		t.Fatalf("fresh journal: %d records, torn=%v", len(recs), j.TornTail())
	}
	appendN(t, j, 3, 0)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs := openJournalT(t, path)
	defer j2.Close()
	if len(recs) != 3 || j2.TornTail() {
		t.Fatalf("reopen: %d records, torn=%v; want 3, false", len(recs), j2.TornTail())
	}
	for i, r := range recs {
		if r.Seq != int64(i+1) || r.Type != "event" {
			t.Fatalf("record %d = %+v", i, r)
		}
		var d struct{ I int }
		if err := json.Unmarshal(r.Data, &d); err != nil || d.I != i {
			t.Fatalf("record %d data = %s (err %v)", i, r.Data, err)
		}
	}
	// Sequence numbering continues where the durable history ended.
	if err := j2.Append("event", "", nil); err != nil {
		t.Fatal(err)
	}
	if _, recs3, err := OpenJournal(path + ".peek"); err != nil || len(recs3) != 0 {
		t.Fatalf("sanity: %v %d", err, len(recs3))
	}
}

// TestJournalTornTail covers every flavor of invalid final record a
// crash can leave. In each case replay must keep the valid prefix,
// report the tear, truncate it, and leave the journal appendable.
func TestJournalTornTail(t *testing.T) {
	tests := []struct {
		name string
		tail func(valid []byte) []byte // appended after 3 valid records
	}{
		{"record cut mid-json", func(valid []byte) []byte {
			line := validLine(t, 99)
			return line[:len(line)/2]
		}},
		{"record missing only its newline", func(valid []byte) []byte {
			line := validLine(t, 99)
			return line[:len(line)-1] // checksum verifies; still torn
		}},
		{"checksum mismatch", func(valid []byte) []byte {
			line := validLine(t, 99)
			line[len(line)-3] ^= 1
			return line
		}},
		{"frame too short", func(valid []byte) []byte {
			return []byte("abc\n")
		}},
		{"checksum not hex", func(valid []byte) []byte {
			line := validLine(t, 99)
			copy(line, "zzzzzzzz")
			return line
		}},
		{"valid frame, invalid json", func(valid []byte) []byte {
			payload := []byte(`{"seq":4,`)
			return []byte(fmt.Sprintf("%08x %s\n", crcOf(payload), payload))
		}},
		{"valid record then garbage then valid record", func(valid []byte) []byte {
			// The record after the hole must be dropped too: a WAL suffix
			// can depend on its prefix.
			return append([]byte("????????? not a frame\n"), validLine(t, 100)...)
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.ndjson")
			j, _ := openJournalT(t, path)
			appendN(t, j, 3, 0)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			valid, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tt.tail(valid)); err != nil {
				t.Fatal(err)
			}
			f.Close()

			j2, recs := openJournalT(t, path)
			if len(recs) != 3 {
				t.Fatalf("replayed %d records, want the 3 valid ones", len(recs))
			}
			if !j2.TornTail() {
				t.Fatal("torn tail not reported")
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(valid) {
				t.Fatalf("tail not truncated back to the valid prefix (%d bytes, want %d)", len(after), len(valid))
			}
			// The journal must be appendable right where the tear was.
			if err := j2.AppendSync("event", "", map[string]int{"i": 3}); err != nil {
				t.Fatal(err)
			}
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			j3, recs := openJournalT(t, path)
			defer j3.Close()
			if len(recs) != 4 || j3.TornTail() {
				t.Fatalf("after repair+append: %d records, torn=%v; want 4, false", len(recs), j3.TornTail())
			}
			if recs[3].Seq != 4 {
				t.Fatalf("post-repair record got seq %d, want 4", recs[3].Seq)
			}
		})
	}
}

// validLine builds one correctly framed journal line outside the
// Journal API, for splicing damaged variants into test files.
func validLine(t *testing.T, seq int64) []byte {
	t.Helper()
	payload, err := json.Marshal(Record{Seq: seq, Type: "event"})
	if err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf("%08x %s\n", crcOf(payload), payload))
}

func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

func TestJournalMidFileCorruptionDropsSuffix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	j, _ := openJournalT(t, path)
	appendN(t, j, 5, 0)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside record 3's JSON (not its newline).
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	mangled := []byte(lines[2])
	mangled[12] ^= 0x20
	lines[2] = string(mangled)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, recs := openJournalT(t, path)
	defer j2.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2 (corruption at record 3 drops it and everything after)", len(recs))
	}
	if !j2.TornTail() {
		t.Fatal("mid-file corruption not reported as a torn tail")
	}
}

func TestJournalRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	j, _ := openJournalT(t, path)
	appendN(t, j, 5, 0)

	// Compact down to two records; seqs are reassigned from 1.
	keep := []Record{
		{Type: "job_submitted", Key: keyFor("a"), Data: json.RawMessage(`{"nodes":4}`)},
		{Type: "shard_completed", Key: keyFor("a"), Data: json.RawMessage(`{"i":0}`)},
	}
	if err := j.Rewrite(keep); err != nil {
		t.Fatal(err)
	}
	// Appends after compaction land in the new file with continuing seqs.
	if err := j.AppendSync("job_done", keyFor("a"), nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs := openJournalT(t, path)
	defer j2.Close()
	if len(recs) != 3 || j2.TornTail() {
		t.Fatalf("after rewrite: %d records, torn=%v; want 3, false", len(recs), j2.TornTail())
	}
	wantTypes := []string{"job_submitted", "shard_completed", "job_done"}
	for i, r := range recs {
		if r.Type != wantTypes[i] || r.Seq != int64(i+1) {
			t.Fatalf("record %d = %+v, want type %s seq %d", i, r, wantTypes[i], i+1)
		}
	}
	// No stray compaction temp files.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Fatalf("compaction temp file %s left behind", e.Name())
		}
	}
}

// TestConcurrentCommitsOfOneKey races commits of one content address (two
// jobs of one campaign: cancel, resubmit, and the first finishes anyway):
// every one succeeds, one entry results, it verifies, and the log holds
// whole records only — one per commit at most, all of them the same bytes.
func TestConcurrentCommitsOfOneKey(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	k, payload := keyFor("campaign-a"), []byte(strings.Repeat(`{"pf":0.25}`, 4096))
	const writers = 8
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Put(k, payload); err != nil {
				t.Error(err)
			}
			if got, ok := s.Get(k); !ok || string(got) != string(payload) {
				t.Errorf("Get after Put: %d bytes, %v", len(got), ok)
			}
		}()
	}
	wg.Wait()
	if s.Len() != 1 {
		t.Fatalf("%d entries, want one", s.Len())
	}
	rec := logRecord(k, payload)
	b, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(b) / len(rec); n < 1 || n > writers || !bytes.Equal(b, bytes.Repeat(rec, n)) {
		t.Fatalf("the log holds %d bytes, not 1 to %d copies of the record", len(b), writers)
	}
	s.Close()
	if s2 := openStore(t, dir); s2.Len() != 1 || logSize(t, dir) != len(b) {
		t.Fatalf("reopen: %d entries, %d of %d bytes kept", s2.Len(), logSize(t, dir), len(b))
	}
}

// TestGetDoesNotWaitForCommit holds a commit inside its fsync and works the
// store meanwhile: a Get of another key is answered, and so is a Put — the
// fsync runs outside both the index lock and the append lock, so a cache
// hit does not queue behind another campaign's commit, nor one commit
// behind another's disk flush. The entry being committed is not served
// until its fsync is over.
func TestGetDoesNotWaitForCommit(t *testing.T) {
	s := openStore(t, t.TempDir())
	ka, kb, kc := keyFor("campaign-a"), keyFor("campaign-b"), keyFor("campaign-c")
	if err := s.Put(ka, []byte("a\n")); err != nil {
		t.Fatal(err)
	}
	inSync, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	s.fsync = func(f *os.File) error {
		if held.CompareAndSwap(false, true) {
			close(inSync)
			<-release
		}
		return f.Sync()
	}
	committed := make(chan error, 1)
	go func() { committed <- s.Put(kb, []byte("b\n")) }()
	<-inSync
	// With either lock held across the fsync these would deadlock the test
	// (release comes after them), so a regression fails by timeout.
	if got, ok := s.Get(ka); !ok || string(got) != "a\n" {
		t.Errorf("Get during a commit = %q, %v", got, ok)
	}
	if _, ok := s.Get(kb); ok {
		t.Error("an entry is served before its fsync is over")
	}
	if s.Len() != 1 {
		t.Errorf("Len during a commit = %d, want 1", s.Len())
	}
	if err := s.Put(kc, []byte("c\n")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(kc); !ok || string(got) != "c\n" {
		t.Errorf("Get of a key committed during another's fsync = %q, %v", got, ok)
	}
	close(release)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(kb); !ok || string(got) != "b\n" {
		t.Errorf("Get after the commit = %q, %v", got, ok)
	}
}
