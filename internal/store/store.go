// Package store is the durability layer of the campaign job service: an
// append-only, checksummed outcome log for completed campaign outcomes
// and an append-only, checksummed write-ahead journal for job and shard
// lifecycle events. Together they make cmd/faultserverd crash-only — a
// SIGKILL'd coordinator reopens its data directory, discards anything
// half-written (torn journal tails, torn or corrupt log records), and
// resumes every in-flight campaign from its last journaled shard.
// Because a campaign's shard plan and experiment expansion are pure
// functions of the normalized request (docs/ARCHITECTURE.md, the
// determinism rules), a recovered run is byte-identical to an
// uninterrupted one.
//
// The store and journal are deliberately generic: keys are SHA-256 hex
// content addresses, payloads are opaque bytes, and journal records carry
// a type tag plus a raw JSON payload. The semantics — what the records
// mean, how replay folds them — live in internal/jobs, which is also what
// keeps this package free of import cycles.
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// The outcome log is one file of records, each
//
//	repro-outcome-v2 <key> <payload length> <payload crc> <header crc>\n<payload>
//
// with the key as 64 lowercase hex digits, the length as 16, and both
// checksums — CRC-32C of the payload, and of the header line up to and
// including the blank before its own — as 8. Every field has a fixed width,
// so a header has exactly one valid spelling.
const (
	logName = "outcomes.log"
	logTag  = "repro-outcome-v2"
	// Where a header's fields start, and its length, newline included.
	keyOff    = len(logTag) + 1
	lenOff    = keyOff + 64 + 1
	sumOff    = lenOff + 16 + 1
	headerLen = sumOff + 8 + 1 + 8 + 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendHeader appends the header line of a record of n payload bytes
// checksummed sum under key.
func appendHeader(b []byte, key string, n uint64, sum uint32) []byte {
	start := len(b)
	var nb [8]byte
	var sb [4]byte
	binary.BigEndian.PutUint64(nb[:], n)
	binary.BigEndian.PutUint32(sb[:], sum)
	b = append(b, logTag+" "...)
	b = append(b, key...)
	b = append(b, ' ')
	b = hex.AppendEncode(b, nb[:])
	b = append(b, ' ')
	b = hex.AppendEncode(b, sb[:])
	b = append(b, ' ')
	binary.BigEndian.PutUint32(sb[:], crc32.Checksum(b[start:], castagnoli))
	b = hex.AppendEncode(b, sb[:])
	return append(b, '\n')
}

// parseHeader reads one header line. It accepts exactly what appendHeader
// writes: the line is decoded, re-spelled, and compared byte for byte.
func parseHeader(line []byte) (key string, n uint64, sum uint32, ok bool) {
	var nb [8]byte
	var sb [4]byte
	if len(line) != headerLen {
		return "", 0, 0, false
	}
	_, errN := hex.Decode(nb[:], line[lenOff:lenOff+16])
	_, errSum := hex.Decode(sb[:], line[sumOff:sumOff+8])
	key = string(line[keyOff : keyOff+64])
	n, sum = binary.BigEndian.Uint64(nb[:]), binary.BigEndian.Uint32(sb[:])
	var want [headerLen]byte
	ok = errN == nil && errSum == nil && validKey(key) && bytes.Equal(appendHeader(want[:0], key, n, sum), line)
	return key, n, sum, ok
}

// record is where a committed payload lies in the log.
type record struct {
	off int64 // of the payload
	n   int64
	sum uint32
}

// Store is a content-addressed result store: one append-only log of
// checksummed records under its directory, and an in-memory index of the
// records that verified. Safe for concurrent use.
type Store struct {
	f *os.File

	// appendMu serialises appends; end is where the next one goes.
	appendMu sync.Mutex
	end      int64

	mu       sync.Mutex
	index    map[string]record
	onCommit func(took time.Duration, err error)

	// fsync is (*os.File).Sync; tests substitute one they can hold up.
	fsync func(*os.File) error
}

// OnCommit registers f to be told how long each Put took and whether it
// failed, on the committing goroutine, just before Put returns.
func (s *Store) OnCommit(f func(took time.Duration, err error)) {
	s.mu.Lock()
	s.onCommit = f
	s.mu.Unlock()
}

// validKey reports whether key is a well-formed SHA-256 hex content
// address — the only keys the store will write or index.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Open creates (or reopens) the result store rooted at dir. Every record
// of the log is verified: one whose payload fails its checksum is skipped
// (its key alone is lost), and the first header that is torn or does not
// verify ends the log, which is truncated there — so a reopened store only
// ever serves results that were fully committed. Nothing else under dir is
// read or deleted.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, logName)
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s := &Store{f: f, index: map[string]record{}, fsync: (*os.File).Sync}
	if errors.Is(statErr, os.ErrNotExist) {
		err = syncDir(dir)
	}
	if err == nil {
		err = s.scan()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// scan indexes every record that verifies, the first of each key, and
// truncates the log after the last whole one.
func (s *Store) scan() error {
	fi, err := s.f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	br := bufio.NewReader(io.NewSectionReader(s.f, 0, size))
	buf := make([]byte, 32<<10)
	var line [headerLen]byte
	off := int64(0)
	for off+int64(headerLen) <= size { // else the header is torn
		if _, err := io.ReadFull(br, line[:]); err != nil {
			return err
		}
		key, n, sum, ok := parseHeader(line[:])
		if !ok || n > uint64(size-off-int64(headerLen)) {
			break // not a header, or its payload is torn
		}
		h := crc32.New(castagnoli)
		if _, err := io.CopyBuffer(h, io.LimitReader(br, int64(n)), buf); err != nil {
			return err
		}
		rec := record{off: off + int64(headerLen), n: int64(n), sum: sum}
		if _, dup := s.index[key]; !dup && h.Sum32() == sum {
			s.index[key] = rec
		}
		off = rec.off + rec.n
	}
	if off < size {
		if err := s.f.Truncate(off); err != nil {
			return err
		}
	}
	s.end = off
	return nil
}

// Put durably stores payload under key: one record appended to the log and
// fsynced, then indexed. Re-putting a stored key is a no-op:
// content-addressed payloads for the same key are byte-identical by
// construction, and two Puts of one key racing both append the same bytes,
// which is harmless.
func (s *Store) Put(key string, payload []byte) error {
	t0 := time.Now()
	err := s.put(key, payload)
	s.mu.Lock()
	f := s.onCommit
	s.mu.Unlock()
	if f != nil {
		f(time.Since(t0), err)
	}
	return err
}

func (s *Store) put(key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid content key %q", key)
	}
	s.mu.Lock()
	_, ok := s.index[key]
	s.mu.Unlock()
	if ok {
		return nil
	}
	rec := record{n: int64(len(payload)), sum: crc32.Checksum(payload, castagnoli)}
	var head [headerLen]byte
	appendHeader(head[:0], key, uint64(rec.n), rec.sum)
	// A failed or short write is cut off again before the next append can
	// land behind it.
	s.appendMu.Lock()
	rec.off = s.end + int64(headerLen)
	_, err := s.f.WriteAt(head[:], s.end)
	if err == nil {
		_, err = s.f.WriteAt(payload, rec.off)
	}
	if err != nil {
		s.f.Truncate(s.end) // best effort: the next Open truncates a torn record too
	} else {
		s.end = rec.off + rec.n
	}
	s.appendMu.Unlock()
	// The fsync runs outside the append lock, so other commits append
	// meanwhile; the key is served only once its record is on the disk.
	if err == nil {
		err = s.fsync(s.f)
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.index[key] = rec
	s.mu.Unlock()
	return nil
}

// Get returns the payload committed under key. A record whose payload no
// longer matches its checksum (bit rot since Open) is dropped from the
// index and reported as a miss, so a later Put appends it afresh: the
// content-addressed contract is that whatever Get returns verified.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	rec, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	b := make([]byte, rec.n)
	if _, err := s.f.ReadAt(b, rec.off); err != nil || crc32.Checksum(b, castagnoli) != rec.sum {
		s.mu.Lock()
		if s.index[key] == rec {
			delete(s.index, key)
		}
		s.mu.Unlock()
		return nil, false
	}
	return b, true
}

// Len returns the number of committed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Close closes the log. Every Put that returned is already on the disk.
func (s *Store) Close() error { return s.f.Close() }

// syncDir fsyncs a directory so a just-created or just-renamed file
// survives power loss. Some platforms (and some filesystems) refuse to
// fsync directories; that only weakens the power-loss window, not crash
// consistency, so the error is ignored there.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		// EINVAL from directory fsync on exotic filesystems is not a
		// durability bug in our code; EIO and friends are real.
		if errors.Is(err, syscall.EINVAL) {
			return nil
		}
		return err
	}
	return nil
}
