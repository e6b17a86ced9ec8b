package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// TestStoreOpenDiscardsDamage covers the crash debris Open must clean:
// temp files from a mid-write crash, entries whose payload no longer
// matches their checksum, and entries with mangled framing. Foreign
// files that are not content addresses must be left untouched.
func TestStoreOpenDiscardsDamage(t *testing.T) {
	tests := []struct {
		name    string
		file    string // basename to create
		content func(key string, good []byte) []byte
		kept    bool // file still on disk after Open
		served  bool // Get(key) hits after Open
	}{
		{
			name: "intact entry",
			content: func(key string, good []byte) []byte {
				return good
			},
			kept: true, served: true,
		},
		{
			name: "bit rot in payload",
			content: func(key string, good []byte) []byte {
				b := append([]byte(nil), good...)
				b[len(b)-2] ^= 0x40
				return b
			},
			kept: false, served: false,
		},
		{
			name: "truncated payload",
			content: func(key string, good []byte) []byte {
				return good[:len(good)-3]
			},
			kept: false, served: false,
		},
		{
			name: "missing header line",
			content: func(key string, good []byte) []byte {
				return []byte("no newline at all")
			},
			kept: false, served: false,
		},
		{
			name: "wrong format version",
			content: func(key string, good []byte) []byte {
				return append([]byte("repro-outcome-v0 "+strings.Repeat("0", 64)+"\n"), "x"...)
			},
			kept: false, served: false,
		},
		{
			name: "crash-abandoned temp file",
			file: tmpPrefix + keyFor("tmp") + "-123",
			content: func(key string, good []byte) []byte {
				return []byte("half a result")
			},
			kept: false, served: false,
		},
		{
			name: "foreign file is not ours to delete",
			file: "README.txt",
			content: func(key string, good []byte) []byte {
				return []byte("hands off")
			},
			kept: true, served: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			dir := t.TempDir()
			key := keyFor(tt.name)

			// Produce a well-formed entry via a throwaway store, then
			// replace its bytes with the damaged variant.
			s0, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := s0.Put(key, []byte(`{"n":1}`)); err != nil {
				t.Fatal(err)
			}
			good, err := os.ReadFile(filepath.Join(dir, key))
			if err != nil {
				t.Fatal(err)
			}
			name := tt.file
			if name == "" {
				name = key
			} else {
				os.Remove(filepath.Join(dir, key))
			}
			if err := os.WriteFile(filepath.Join(dir, name), tt.content(key, good), 0o644); err != nil {
				t.Fatal(err)
			}

			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(filepath.Join(dir, name)); (err == nil) != tt.kept {
				t.Errorf("file kept = %v, want %v", err == nil, tt.kept)
			}
			if _, ok := s.Get(key); ok != tt.served {
				t.Errorf("Get served = %v, want %v", ok, tt.served)
			}
		})
	}
}

func TestStoreGetDropsLateCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := keyFor("rots-after-open")
	if err := s.Put(k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Rot sets in after Open verified the entry.
	if err := os.WriteFile(filepath.Join(dir, k), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("Get returned a corrupt entry")
	}
	if _, err := os.Stat(filepath.Join(dir, k)); err == nil {
		t.Fatal("corrupt entry left on disk after the miss")
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("second Get resurrected the deleted entry")
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

// temps lists the temp files under a store directory.
func temps(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestPendingLeavesNoTemp holds every way a begun entry can end to leaving
// no temp file behind: aborted, committed, committed over a key that is
// already there, begun with a key the store refuses, and — the crash case,
// a Begin nothing followed — swept by the next Open.
func TestPendingLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, payload := keyFor("campaign-a"), []byte(`{"pf":0.25}`+"\n")

	s.Begin(k).Abort()
	if got := temps(t, dir); len(got) != 0 || s.Len() != 0 {
		t.Fatalf("after Abort: temps %v, %d entries", got, s.Len())
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("an aborted entry is served")
	}
	if err := s.Begin(k).Commit(payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(k).Commit(payload); err != nil { // the key exists: nothing to write
		t.Fatal(err)
	}
	if got, ok := s.Get(k); !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v; want the committed payload", got, ok)
	}
	if got := temps(t, dir); len(got) != 0 || s.Len() != 1 {
		t.Fatalf("after two commits of one key: temps %v, %d entries", got, s.Len())
	}
	bad := s.Begin("../../etc/passwd")
	if err := bad.Commit(payload); err == nil {
		t.Fatal("Commit under an invalid key succeeded")
	}
	s.Begin("not-a-key").Abort()
	if got := temps(t, dir); len(got) != 0 {
		t.Fatalf("after an invalid key: temps %v", got)
	}

	// A process killed between Begin and Commit: the file exists, nothing
	// will ever finish it.
	orphan := s.Begin(keyFor("campaign-b"))
	<-orphan.created
	if orphan.err != nil {
		t.Fatal(orphan.err)
	}
	orphan.tmp.Close()
	if got := temps(t, dir); len(got) != 1 {
		t.Fatalf("a begun entry has temps %v, want one", got)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := temps(t, dir); len(got) != 0 || s2.Len() != 1 {
		t.Fatalf("after reopen: temps %v, %d entries; want none and the one committed", got, s2.Len())
	}
}

// TestConcurrentCommitsOfOneKey races commits of one content address (two
// jobs of one campaign: cancel, resubmit, and the first finishes anyway):
// every one succeeds, one entry results, it verifies, no temp is left.
func TestConcurrentCommitsOfOneKey(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, payload := keyFor("campaign-a"), []byte(strings.Repeat(`{"pf":0.25}`, 4096))
	const writers = 8
	entries := make([]*Pending, writers)
	for i := range entries {
		entries[i] = s.Begin(k)
	}
	var wg sync.WaitGroup
	for _, e := range entries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.Commit(payload); err != nil {
				t.Error(err)
			}
			if got, ok := s.Get(k); !ok || string(got) != string(payload) {
				t.Errorf("Get after Commit: %d bytes, %v", len(got), ok)
			}
		}()
	}
	wg.Wait()
	if got := temps(t, dir); len(got) != 0 || s.Len() != 1 {
		t.Fatalf("temps %v, %d entries; want none and one", got, s.Len())
	}
	if s2, err := Open(dir); err != nil || s2.Len() != 1 {
		t.Fatalf("reopen: %d entries, %v", s2.Len(), err)
	}
}

// TestGetDoesNotWaitForCommit holds a commit inside its fsync and reads
// another key meanwhile: Put used to keep the store's lock across both of
// its fsyncs, so a cache hit read from the disk queued behind whatever
// campaign was committing. The entry being committed is not served until
// its commit is over.
func TestGetDoesNotWaitForCommit(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := keyFor("campaign-a"), keyFor("campaign-b")
	if err := s.Put(ka, []byte("a\n")); err != nil {
		t.Fatal(err)
	}
	inSync, release := make(chan struct{}), make(chan struct{})
	s.fsync = func(f *os.File) error {
		close(inSync)
		<-release
		return f.Sync()
	}
	committed := make(chan error, 1)
	go func() { committed <- s.Put(kb, []byte("b\n")) }()
	<-inSync
	// With the lock held across the fsync this Get would deadlock the test
	// (release comes after it), so a regression fails by timeout.
	if got, ok := s.Get(ka); !ok || string(got) != "a\n" {
		t.Errorf("Get during a commit = %q, %v", got, ok)
	}
	if _, ok := s.Get(kb); ok {
		t.Error("an entry is served before its commit is over")
	}
	if s.Len() != 1 {
		t.Errorf("Len during a commit = %d, want 1", s.Len())
	}
	close(release)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(kb); !ok || string(got) != "b\n" {
		t.Errorf("Get after the commit = %q, %v", got, ok)
	}
}
