package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// watchedSync replaces a journal's fsync with one that notes, before it
// syncs, which records the file already holds, and publishes them as durable
// once the sync is over: "on the disk" as a barrier caller is entitled to
// read it. fail, when set, makes every sync report that error instead;
// hold, when set, keeps each sync from finishing until it is closed.
type watchedSync struct {
	path string
	fail error
	hold chan struct{}

	mu      sync.Mutex
	durable map[int]bool // record ids covered by a finished sync
	last    int          // records in the file when the latest sync began
}

func watch(j *Journal) *watchedSync {
	w := &watchedSync{path: j.path, durable: map[int]bool{}}
	j.fsync = w.sync
	return w
}

func (w *watchedSync) sync(f *os.File) error {
	_, ids := replayIDs(w.path)
	if w.hold != nil {
		<-w.hold
	}
	err := f.Sync()
	if w.fail != nil {
		err = w.fail
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.last = len(ids)
	if err == nil {
		for _, id := range ids {
			w.durable[id] = true
		}
	}
	return err
}

func (w *watchedSync) isDurable(id int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durable[id]
}

// replayIDs replays the journal file as a reopening process would and
// returns its records and the id each carries as data.
func replayIDs(path string) ([]Record, []int) {
	b, _ := os.ReadFile(path)
	recs, _, _, _ := replayAll(bytes.NewReader(b))
	ids := make([]int, len(recs))
	for i, r := range recs {
		json.Unmarshal(r.Data, &ids[i])
	}
	return recs, ids
}

// TestJournalGroupCommit mixes the three durability classes from several
// goroutines and holds the journal to its contract: the file carries the
// records in sequence order; a barrier record is in the file when
// AppendBarrier hands back its wait, and the wait returns only after an fsync
// that began with its bytes already in the file; coalescing never adds an
// fsync — there are at most as many as barrier and soon appends; and Close
// leaves everything durable, trailing breadcrumbs included.
func TestJournalGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	j, _ := openJournalT(t, path)
	w := watch(j)

	const writers, each = 6, 40
	var wg sync.WaitGroup
	var mu sync.Mutex
	asked := 0 // barrier + soon appends
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := g*each + i
				var err error
				switch class := (g + i) % 3; class {
				case 0:
					err = j.Append("crumb", "", id)
				case 1:
					err = j.AppendSoon("soon", keyFor("k"), id)
				case 2:
					var wait func() error
					if wait, err = j.AppendBarrier("barrier", keyFor("k"), id); err != nil {
						break
					}
					// A copy of the file, replayed as a reopening process would.
					if _, ids := replayIDs(path); !slices.Contains(ids, id) {
						t.Errorf("barrier record %d is not in the file when AppendBarrier returns", id)
					}
					if err = wait(); err == nil && !w.isDurable(id) {
						t.Errorf("barrier %d's wait returned before an fsync that began after its write had finished", id)
					}
				}
				if err != nil {
					t.Errorf("append %d: %v", id, err)
				}
				if (g+i)%3 != 0 {
					mu.Lock()
					asked++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if st := j.Stats(); st.Fsyncs > int64(asked) || st.Fsyncs == 0 || st.Records != writers*each {
		t.Errorf("%d fsyncs for %d barrier and soon appends, %d records", st.Fsyncs, asked, st.Records)
	}
	// A breadcrumb nobody will ask a sync for: Close's to make durable.
	if err := j.Append("crumb", "", writers*each); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if w.last != writers*each+1 {
		t.Errorf("the last fsync began with %d of %d records in the file", w.last, writers*each+1)
	}
	if err := j.Append("crumb", "", nil); !errors.Is(err, errClosed) {
		t.Errorf("append after Close: %v", err)
	}
	recs, ids := replayIDs(path)
	seen := map[int]bool{}
	for i, r := range recs {
		if r.Seq != int64(i+1) {
			t.Fatalf("record %d of the file has seq %d", i, r.Seq)
		}
		seen[ids[i]] = true
	}
	if len(seen) != writers*each+1 {
		t.Errorf("the file holds %d distinct records, want %d", len(seen), writers*each+1)
	}
}

// TestJournalSyncerRaces runs Rewrite, and then Close, against appenders of
// every class and the syncer they keep busy: nothing deadlocks or races, an
// append fails only because the journal closed, a barrier caller is never
// left waiting, and what the file holds afterwards replays whole.
func TestJournalSyncerRaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	j, _ := openJournalT(t, path)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				err := []func(string, string, interface{}) error{j.Append, j.AppendSoon, j.AppendSync}[(g+i)%3]("event", "", i)
				if errors.Is(err, errClosed) {
					return
				}
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := j.Rewrite([]Record{{Type: "kept", Data: json.RawMessage(`{"i": 1}`)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, valid, torn, _ := replayAll(bytes.NewReader(b))
	if torn || valid != int64(len(b)) || len(recs) == 0 || recs[0].Type != "kept" {
		t.Fatalf("after the races the file replays %d records, %d of %d bytes, torn=%v", len(recs), valid, len(b), torn)
	}
	for i, r := range recs {
		if r.Seq != int64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
}

// TestJournalBarrierReportsSyncFailure: a barrier's wait, handed back with
// its record already in the file, does not return while the fsync that
// began after the write is held, and returns that fsync's failure when it
// fails; so does the observer learn of it, and the journal goes on.
func TestJournalBarrierReportsSyncFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	j, _ := openJournalT(t, path)
	defer j.Close()
	w := watch(j)
	w.fail, w.hold = errors.New("disk on fire"), make(chan struct{})
	release := sync.OnceFunc(func() { close(w.hold) })
	defer release() // before Close, which waits for the held sync
	var observed error
	j.OnFsync(func(_ time.Duration, err error) { observed = err })
	wait, err := j.AppendBarrier("event", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ids := replayIDs(path); !slices.Equal(ids, []int{1}) {
		t.Fatalf("AppendBarrier returned with the file replaying ids %v", ids)
	}
	waited := make(chan error, 1)
	go func() { waited <- wait() }()
	select {
	case err := <-waited:
		t.Fatalf("the wait returned (%v) while the fsync was held", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if err := <-waited; !errors.Is(err, w.fail) {
		t.Fatalf("barrier wait over a failing fsync returned %v", err)
	}
	if w.last != 1 {
		t.Errorf("the failed fsync began with %d records in the file, want 1", w.last)
	}
	j.mu.Lock()
	if !errors.Is(observed, w.fail) {
		t.Errorf("the fsync observer saw %v", observed)
	}
	j.mu.Unlock()
	w.fail = nil
	if err := j.AppendSync("event", "", 2); err != nil || !w.isDurable(2) {
		t.Fatalf("barrier append after the disk recovered: %v, durable %v", err, w.isDurable(2))
	}
}

// TestJournalWriteThrough is the SIGKILL half of the crash contract: every
// record, whatever its class, is in the file the moment its append returns,
// so a process that dies without closing the journal loses none — and
// cmd/faultserverd's TestCrashRecovery, which times its kills by the
// journal file's growth, sees each record as it happens.
func TestJournalWriteThrough(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	j, _ := openJournalT(t, path)
	defer j.Close() // after the "crash" below has been examined
	appends := []func(string, string, interface{}) error{j.Append, j.AppendSoon, j.AppendSync}
	for i := 0; i < 30; i++ {
		if err := appends[i%3]("event", keyFor("job"), i); err != nil {
			t.Fatal(err)
		}
		// The dead process's journal, as the next one finds it.
		if recs, ids := replayIDs(path); len(recs) != i+1 || ids[i] != i {
			t.Fatalf("after append %d the file replays %d records", i, len(recs))
		}
	}
	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 30 || j2.TornTail() {
		t.Fatalf("reopened without Close: %d records, torn=%v", len(recs), j2.TornTail())
	}
}

// TestFrameIdentity holds the one-pass frame encoder to the bytes the
// journal has always written: json.Marshal of the Record, its data
// marshalled first, behind the payload's checksum — for the shape of every
// record type the service journals, an empty key and nil data included, and
// for strings the JSON encoder escapes.
func TestFrameIdentity(t *testing.T) {
	type lease struct {
		Lease  string `json:"lease"`
		Worker string `json:"worker"`
		Index  int    `json:"index"`
	}
	key := keyFor("campaign")
	laid := selfLaid{N: 9616}
	for i, tc := range []struct {
		typ, key string
		data     interface{}
	}{
		{"job_submitted", key, map[string]interface{}{"workload": "rspeed", "models": []string{"sa0", "sa1"}, "seed": 7}},
		{"job_done", key, nil},
		{"job_failed", key, struct {
			Error string `json:"error"`
		}{`jobs: shard 3 failed 3 times, last: <nil> & "quoted"`}},
		{"job_cancelled", key, nil},
		{"shard_planned", key, struct {
			Total  int `json:"total"`
			Shards int `json:"shards"`
		}{768, 4}},
		{"shard_leased", key, lease{"abc-1", "local-0", 2}},
		{"shard_completed", key, struct {
			GoldenCycles uint64   `json:"golden_cycles"`
			Indices      []int    `json:"indices"`
			Experiments  []string `json:"experiments"`
		}{9616, []int{0, 1, 2}, []string{"a", "b\n", "é "}}},
		{"event", "", nil},
		{"event", "", json.RawMessage("{ \"spaced\" : [ 1 , 2 ] }")},
		{"event", "", (*lease)(nil)},
		{"typ\"e<&>", "kéy\x00\xff", "d"},
		{"shard_completed", key, &laid},
	} {
		var raw json.RawMessage
		if tc.data != nil {
			b, err := json.Marshal(tc.data)
			if err != nil {
				t.Fatal(err)
			}
			raw = b
		}
		payload, err := json.Marshal(Record{Seq: int64(i + 1), Type: tc.typ, Key: tc.key, Data: raw})
		if err != nil {
			t.Fatal(err)
		}
		want := frame(payload)

		var w frameBuf
		if err := encodeFrame(&w, json.NewEncoder(&w), int64(i+1), tc.typ, tc.key, tc.data); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.b, want) {
			t.Errorf("%s: frame\n %q\nwant\n %q", tc.typ, w.b, want)
		}
		if rec, ok := parseLine(w.b); !ok || rec.Seq != int64(i+1) || rec.Type != tc.typ {
			t.Errorf("%s: the frame does not parse back: %+v, %v", tc.typ, rec, ok)
		}
	}
	if laid.asked != 1 {
		t.Errorf("data with an AppendJSON method was asked for its bytes %d times, want once (and the reflecting encoder not at all)", laid.asked)
	}
}

// selfLaid is record data that lays its own JSON, as the jobs layer's
// ShardOutput does; asked counts the frames that took it up on it.
type selfLaid struct {
	N     int `json:"n"`
	asked int
}

func (s *selfLaid) AppendJSON(b []byte) []byte {
	s.asked++
	return append(strconv.AppendInt(append(b, `{"n":`...), int64(s.N), 10), '}')
}

// TestParseExactly pins the two readers to the one spelling the writers
// produce. The checksum field of a journal line is eight lowercase hex
// digits — fmt.Sscanf, which used to read it, also took leading blanks, a
// 0x prefix and capitals — and an outcome log record's header is the tag,
// the key, the length and the two checksums, each at its fixed width in
// lowercase hex, one blank between, and the newline.
func TestParseExactly(t *testing.T) {
	payload := `{"seq":480595,"type":"t"}` // crc32 0x00000ceb
	for spelling, want := range map[string]bool{
		"00000ceb": true,
		"     ceb": false,
		"0x000ceb": false,
		"00000CEB": false,
		"+0000ceb": false,
	} {
		if _, ok := parseLine([]byte(spelling + " " + payload + "\n")); ok != want {
			t.Errorf("checksum field %q: accepted=%v, want %v", spelling, ok, want)
		}
	}

	k, body := keyFor("entry"), []byte("{\"pf\":0.5}\n")
	rec := logRecord(k, body)
	line := string(rec[:headerLen-1])
	fields := line[len(logTag)+1:] // key, length, checksums
	for name, header := range map[string]string{
		"as written":       line,
		"trailing garbage": line + " and more",
		"trailing blank":   line + " ",
		"two spaces":       logTag + "  " + fields,
		"capitals":         logTag + " " + strings.ToUpper(fields),
		"0x length":        strings.Replace(line, " 0000", " 0x00", 1),
		"blank-padded":     strings.Replace(line, " 0000", "     ", 1),
		"short checksum":   line[:len(line)-1],
		"carriage return":  line + "\r",
		"header checksum":  line[:len(line)-1] + string(line[len(line)-1]^1),
	} {
		gotKey, n, sum, ok := parseHeader([]byte(header + "\n"))
		if ok != (name == "as written") {
			t.Errorf("header %s: accepted=%v", name, ok)
		}
		if ok && (gotKey != k || n != uint64(len(body)) || sum != crc32.Checksum(body, castagnoli)) {
			t.Errorf("header %s reads key %s, %d bytes, checksum %08x", name, gotKey, n, sum)
		}
	}
}
