package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// The journal is an append-only NDJSON write-ahead log of job and shard
// lifecycle events. Each line is framed as
//
//	<crc32-ieee, 8 hex digits> <record JSON>\n
//
// so every record is independently verifiable. Replay reads the longest
// valid prefix: the first record whose frame, checksum or JSON fails to
// parse ends the replay, and the file is truncated back to the last
// valid byte — the crash-only contract that a torn tail (the write the
// process died inside) is silently discarded rather than poisoning
// recovery. Records after a corrupt one are dropped with it: a WAL's
// suffix may depend on its prefix, so resuming past a hole could
// resurrect state the lost record had superseded.
//
// Every append is written through to the kernel before it returns, so a
// killed process loses nothing it appended; what an append's durability
// class decides is when the record is forced to the disk, which is what
// survives a power loss:
//
//	barrier     the caller returns once an fsync that began after its
//	            write has finished (AppendSync), or is handed that wait
//	            (AppendBarrier); concurrent callers share one fsync
//	soon        the journal's syncer goroutine fsyncs it as soon as it
//	            can, and the caller does not wait
//	breadcrumb  never synced on its own account: it rides the next fsync
//
// The fsync runs outside the journal's mutex, so appends of any class go
// on while the disk is busy.

// Record is one journal entry. Type tags the event, Key is the campaign
// content address it concerns, and Data carries the event's typed
// payload as raw JSON — the journal itself never interprets it.
type Record struct {
	Seq  int64           `json:"seq"`
	Type string          `json:"type"`
	Key  string          `json:"key,omitempty"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Journal is an append-only checksummed record log. Safe for concurrent
// use.
type Journal struct {
	path string

	mu      sync.Mutex
	cond    *sync.Cond // on mu: a sync is owed, a sync has finished, the journal is closing
	f       *os.File
	frame   frameBuf      // the one record being framed, reused
	enc     *json.Encoder // encodes a record's data onto frame
	seq     int64
	torn    bool  // a torn/corrupt tail was truncated at open
	records int64 // live record count (replayed + appended - compacted)
	size    int64 // bytes of valid records on disk
	fsyncs  int64 // fsync calls issued (appends, Rewrite, Close)
	// lastCompaction is when the journal contents were last rewritten
	// down to live state (stamped at open, since OpenManager compacts
	// immediately after replay).
	lastCompaction time.Time

	// Group commit. dirty: bytes were written since the last fsync began.
	// owed: one of them belongs to a barrier or soon record. round: the
	// barrier callers the next fsync releases. The syncer goroutine starts
	// with the first owed fsync and exits at Close.
	dirty, owed bool
	round       *syncRound
	syncing     bool          // an fsync is in flight, outside mu
	rewriters   int           // Rewrites waiting for that fsync to end: the syncer starts no other
	closing     bool          // Close has begun: no more appends
	exited      chan struct{} // non-nil once the syncer runs; closed when it has returned
	onFsync     func(took time.Duration, err error)
	// fsync is (*os.File).Sync; tests substitute one they can watch, hold
	// up or fail (SetFsync).
	fsync func(*os.File) error
}

// syncRound is one fsync as the barrier callers waiting for it see it.
type syncRound struct {
	done chan struct{}
	err  error
}

// wait returns once the round's fsync has finished, with its error.
func (r *syncRound) wait() error {
	<-r.done
	return r.err
}

// frameBuf lets the JSON encoder append to the frame under construction.
type frameBuf struct{ b []byte }

func (w *frameBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

var errClosed = errors.New("store: journal closed")

// tmpPrefix names the file a compaction writes before renaming it over the
// journal.
const tmpPrefix = ".tmp-"

// JournalStats is an observability snapshot of the journal's size and
// durability activity.
type JournalStats struct {
	// Records is the number of live records (replay survivors plus
	// appends since the last compaction).
	Records int64
	// SizeBytes is the byte length of the valid record prefix on disk.
	SizeBytes int64
	// Fsyncs counts fsync calls issued against the journal file.
	Fsyncs int64
	// LastCompaction is when Rewrite last folded the journal (or when it
	// was opened, whichever is later).
	LastCompaction time.Time
}

// Stats returns a consistent snapshot of the journal's counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{
		Records:        j.records,
		SizeBytes:      j.size,
		Fsyncs:         j.fsyncs,
		LastCompaction: j.lastCompaction,
	}
}

// OpenJournal opens (creating if absent) the journal at path, replays
// every valid record, truncates any torn or corrupt tail, and positions
// the journal for appending. The returned records are the durable
// history the caller should fold into its recovered state.
func OpenJournal(path string) (*Journal, []Record, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	recs, valid, torn, err := replayAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if torn {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	j := &Journal{
		path: path, f: f, torn: torn,
		records: int64(len(recs)), size: valid, lastCompaction: time.Now(),
	}
	j.cond = sync.NewCond(&j.mu)
	j.enc = json.NewEncoder(&j.frame)
	j.fsync = (*os.File).Sync
	for _, r := range recs {
		if r.Seq > j.seq {
			j.seq = r.Seq
		}
	}
	return j, recs, nil
}

// replayAll scans the journal, returning the valid records, the byte
// offset after the last valid record, and whether an invalid tail
// follows it.
func replayAll(r io.Reader) (recs []Record, valid int64, torn bool, err error) {
	br := bufio.NewReader(r)
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr == io.EOF && len(line) == 0 {
			return recs, valid, torn, nil
		}
		if rerr != nil && rerr != io.EOF {
			return nil, 0, false, rerr
		}
		rec, ok := parseLine(line)
		if !ok || rerr == io.EOF {
			// A record missing its newline is by definition the torn tail
			// even if its checksum happens to verify: the append was cut
			// mid-write. Anything after the first bad record is dropped
			// with it.
			return recs, valid, true, nil
		}
		recs = append(recs, rec)
		valid += int64(len(line))
	}
}

// parseLine verifies one framed journal line.
func parseLine(line []byte) (Record, bool) {
	// Frame: the payload's checksum as 8 lowercase hex digits, one space,
	// JSON, newline — exactly what encodeFrame writes, so the field is
	// compared with its one valid spelling rather than parsed.
	if len(line) < 11 || line[8] != ' ' || line[len(line)-1] != '\n' {
		return Record{}, false
	}
	payload := line[9 : len(line)-1]
	if sum := checksumHex(payload); !bytes.Equal(line[:8], sum[:]) {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, false
	}
	return rec, true
}

// checksumHex is a payload's CRC-32 as a frame spells it.
func checksumHex(payload []byte) (out [8]byte) {
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	hex.Encode(out[:], sum[:])
	return out
}

// jsonAppender is data that lays its own JSON — byte for byte what
// json.Marshal would make of it — onto a buffer: how a large record (the
// jobs layer's shard_completed) skips the reflecting encoder without this
// package learning what is in it.
type jsonAppender interface {
	AppendJSON(b []byte) []byte
}

// encodeFrame makes w.b the framed record in one pass, byte for byte
// what json.Marshal(Record{seq, typ, key, <data, marshalled>}) behind its
// checksum would be: the field order and omitempty rules of Record, spelled
// out. A nil data is no data field. On an encoding error w.b holds garbage.
func encodeFrame(w *frameBuf, enc *json.Encoder, seq int64, typ, key string, data interface{}) error {
	w.b = append(w.b[:0], "00000000 {\"seq\":"...)
	w.b = strconv.AppendInt(w.b, seq, 10)
	w.b = append(w.b, ",\"type\":"...)
	w.b = AppendJSONString(w.b, typ)
	if key != "" {
		w.b = append(w.b, ",\"key\":"...)
		w.b = AppendJSONString(w.b, key)
	}
	if data != nil {
		w.b = append(w.b, ",\"data\":"...)
		if a, ok := data.(jsonAppender); ok {
			w.b = a.AppendJSON(w.b)
		} else if err := enc.Encode(data); err != nil {
			return err
		} else {
			w.b = w.b[:len(w.b)-1] // the encoder ends every value with a newline
		}
	}
	w.b = append(w.b, '}')
	sum := checksumHex(w.b[9:])
	copy(w.b, sum[:])
	w.b = append(w.b, '\n')
	return nil
}

// AppendJSONString appends s as encoding/json writes a string: plain ASCII —
// record types, content keys, the node and outcome names of an experiment —
// is copied as it is, and anything the encoder would escape or replace
// (quotes, backslashes, <>&, control bytes, DEL and everything beyond it,
// so U+2028 and invalid UTF-8 too) goes through the encoder. The one copy
// of this rule: the jobs layer's outcome encoder calls it as well.
func AppendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// TornTail reports whether OpenJournal found and truncated a torn or
// corrupt tail — worth a log line, not an error.
func (j *Journal) TornTail() bool { return j.torn }

// durability is when an appended record is forced to the disk; see the
// file comment.
type durability int

const (
	breadcrumb durability = iota
	soon
	barrier
)

// Append writes one breadcrumb record (assigning its sequence number): it
// reaches the kernel before Append returns and the disk with the next
// fsync anyone asks for. Lost to a power failure it replays as a torn tail,
// which recovery tolerates by re-deriving the lost event.
func (j *Journal) Append(typ, key string, data interface{}) error {
	_, err := j.append(breadcrumb, typ, key, data)
	return err
}

// AppendSoon writes one record and has the journal fsync it right away
// without making the caller wait for the disk: for records whose loss to a
// power failure costs redone work, never correctness.
func (j *Journal) AppendSoon(typ, key string, data interface{}) error {
	_, err := j.append(soon, typ, key, data)
	return err
}

// AppendSync writes one record and returns once it is on the disk: a
// barrier, for events the caller must not act on before they are durable.
func (j *Journal) AppendSync(typ, key string, data interface{}) error {
	wait, err := j.AppendBarrier(typ, key, data)
	if err != nil {
		return err
	}
	return wait()
}

// AppendBarrier is AppendSync split in two: it writes the record, owes it
// an fsync at once and returns the wait for it, which returns once an
// fsync that began after the write has finished, with that fsync's error.
// Between the two the caller may do what does not depend on the record
// being on the disk — release its own locks, start work the record
// describes.
func (j *Journal) AppendBarrier(typ, key string, data interface{}) (wait func() error, err error) {
	r, err := j.append(barrier, typ, key, data)
	if err != nil {
		return nil, err
	}
	return r.wait, nil
}

// append writes one record through and owes it the fsync its class asks
// for; a barrier record gets the round that fsync will end.
func (j *Journal) append(d durability, typ, key string, data interface{}) (*syncRound, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.appendLocked(typ, key, data); err != nil {
		return nil, err
	}
	if d == breadcrumb {
		return nil, nil
	}
	j.owed = true
	if j.exited == nil {
		j.exited = make(chan struct{})
		go j.syncer()
	}
	j.cond.Broadcast()
	if d == soon {
		return nil, nil
	}
	if j.round == nil {
		j.round = &syncRound{done: make(chan struct{})}
	}
	return j.round, nil
}

// appendLocked frames one record and writes it through to the kernel: a
// record must not linger in user space, where even a clean process exit
// could lose it.
func (j *Journal) appendLocked(typ, key string, data interface{}) error {
	if j.closing {
		return errClosed
	}
	if err := encodeFrame(&j.frame, j.enc, j.seq+1, typ, key, data); err != nil {
		return err
	}
	if _, err := j.f.Write(j.frame.b); err != nil {
		return err
	}
	j.seq++
	j.records++
	j.size += int64(len(j.frame.b))
	j.dirty = true
	return nil
}

// SetFsync replaces how the journal file is forced to the disk —
// (*os.File).Sync — with f: how a test outside this package holds a sync up
// or makes it fail.
func (j *Journal) SetFsync(f func(*os.File) error) {
	j.mu.Lock()
	j.fsync = f
	j.mu.Unlock()
}

// OnFsync registers f to be told how long each fsync of the journal file
// took and whether it failed: the only report of a failure no barrier
// caller was waiting on. f runs with the journal locked and must not call
// back into it.
func (j *Journal) OnFsync(f func(took time.Duration, err error)) {
	j.mu.Lock()
	j.onFsync = f
	j.mu.Unlock()
}

// syncer is the journal's one background goroutine: it fsyncs whenever a
// barrier or soon record is owed one, and exits when Close begins.
func (j *Journal) syncer() {
	defer close(j.exited)
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		for (!j.owed || j.rewriters > 0) && !j.closing {
			j.cond.Wait()
		}
		if j.closing {
			return // Close runs the last round itself
		}
		j.syncLocked()
	}
}

// syncLocked runs one fsync round over everything written so far — the one
// place the live file is synced. Called with mu held; the fsync itself runs
// with mu released, so appends proceed (and join the next round) meanwhile.
// The barrier callers that joined this round return when it is over.
func (j *Journal) syncLocked() error {
	r, f, fsync := j.round, j.f, j.fsync
	j.round, j.owed, j.dirty, j.syncing = nil, false, false, true
	j.mu.Unlock()
	t0 := time.Now()
	err := fsync(f)
	took := time.Since(t0)
	j.mu.Lock()
	j.syncing = false
	j.fsyncs++
	if j.onFsync != nil {
		j.onFsync(took, err)
	}
	if r != nil {
		r.err = err
		close(r.done)
	}
	j.cond.Broadcast()
	return err
}

// Rewrite atomically replaces the journal's contents with recs —
// compaction after recovery has folded the history. The replacement is
// written to a temp file, fsync'd and renamed over the journal, so a
// crash mid-compaction leaves the old journal intact. Sequence numbers
// are reassigned from 1.
func (j *Journal) Rewrite(recs []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	// The file an fsync is running on is not swapped out under it; and the
	// syncer, which under a stream of appends would begin the next fsync
	// before this goroutine ran, begins none while a Rewrite waits.
	j.rewriters++
	for j.syncing {
		j.cond.Wait()
	}
	j.rewriters--
	defer j.cond.Broadcast()
	if j.closing {
		return errClosed
	}
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, tmpPrefix+"journal-")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriter(tmp)
	var seq, size int64
	for _, r := range recs {
		seq++
		var data interface{}
		if len(r.Data) > 0 {
			data = r.Data
		}
		err := encodeFrame(&j.frame, j.enc, seq, r.Type, r.Key, data)
		if err == nil {
			_, err = bw.Write(j.frame.b)
		}
		if err != nil {
			tmp.Close()
			return err
		}
		size += int64(len(j.frame.b))
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	// Reopen the live handle onto the new file; the old inode is gone.
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.f.Close()
	j.f = f
	j.seq = seq
	j.records = int64(len(recs))
	j.size = size
	j.fsyncs++      // the temp file's fsync above
	j.dirty = false // and it covered everything the new file holds
	j.lastCompaction = time.Now()
	return nil
}

// Close makes everything appended durable, stops the syncer and closes the
// journal. Appends that race it either precede its fsync or fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closing {
		j.mu.Unlock()
		return nil
	}
	j.closing = true
	j.cond.Broadcast()
	for j.syncing {
		j.cond.Wait()
	}
	var err error
	if j.dirty || j.owed {
		err = j.syncLocked()
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	exited := j.exited
	j.mu.Unlock()
	if exited != nil {
		<-exited
	}
	return err
}
