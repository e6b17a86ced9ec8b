// Package store is the durability layer of the campaign job service: an
// on-disk content-addressed result store for completed campaign outcomes
// and an append-only, checksummed write-ahead journal for job and shard
// lifecycle events. Together they make cmd/faultserverd crash-only — a
// SIGKILL'd coordinator reopens its data directory, discards anything
// half-written (torn journal tails, unrenamed result temps, corrupt
// entries), and resumes every in-flight campaign from its last journaled
// shard. Because a campaign's shard plan and experiment expansion are
// pure functions of the normalized request (the PR-4 determinism rule),
// a recovered run is byte-identical to an uninterrupted one.
//
// The store and journal are deliberately generic: keys are SHA-256 hex
// content addresses, payloads are opaque bytes, and journal records carry
// a type tag plus a raw JSON payload. The semantics — what the records
// mean, how replay folds them — live in internal/jobs, which is also what
// keeps this package free of import cycles.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// resultHeader tags every result file with its format version; the rest
// of the header line is the SHA-256 of the payload that follows it.
const resultHeader = "repro-outcome-v1"

// Store is an on-disk content-addressed result store: one file per key
// under its directory, each self-checksummed, written via fsync'd
// temp-file + atomic rename so a crash can never leave a half-written
// entry visible. Safe for concurrent use.
type Store struct {
	dir string

	mu   sync.Mutex
	keys map[string]struct{}

	onCommit func(took time.Duration, err error)

	// fsync is (*os.File).Sync; tests substitute one they can hold up.
	fsync func(*os.File) error
}

// OnCommit registers f to be told how long each Commit took and whether it
// failed, on the committing goroutine, just before Commit returns.
func (s *Store) OnCommit(f func(took time.Duration, err error)) {
	s.mu.Lock()
	s.onCommit = f
	s.mu.Unlock()
}

// validKey reports whether key is a well-formed SHA-256 hex content
// address — the only names the store will touch on disk, so a corrupt
// journal can never walk the filesystem.
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

// Open creates (or reopens) a result store rooted at dir. Every existing
// entry is integrity-checked: files whose checksum or framing do not
// verify — and temp files left behind by a crash mid-write — are deleted,
// so a reopened store only ever serves results that were fully committed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, keys: map[string]struct{}{}, fsync: (*os.File).Sync}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, tmpPrefix) {
			os.Remove(filepath.Join(dir, name)) // crashed mid-write
			continue
		}
		if !validKey(name) {
			continue // not ours; leave it alone
		}
		if _, err := s.readVerified(name); err != nil {
			os.Remove(filepath.Join(dir, name)) // half-written or bit-rotted
			continue
		}
		s.keys[name] = struct{}{}
	}
	return s, nil
}

const tmpPrefix = ".tmp-"

// headerLen is the length of an entry's header line: the format tag, one
// space, the payload's SHA-256 as 64 lowercase hex digits, a newline, and
// nothing else — exactly what Commit writes.
const headerLen = len(resultHeader) + 1 + 2*sha256.Size + 1

// readVerified loads one entry and checks its framing and checksum.
func (s *Store) readVerified(key string) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(s.dir, key))
	if err != nil {
		return nil, err
	}
	if len(b) < headerLen || string(b[:len(resultHeader)]) != resultHeader ||
		b[len(resultHeader)] != ' ' || b[headerLen-1] != '\n' {
		return nil, fmt.Errorf("store: %s: bad header", key)
	}
	payload := b[headerLen:]
	got := sha256.Sum256(payload)
	var sum [2 * sha256.Size]byte
	hex.Encode(sum[:], got[:])
	if !bytes.Equal(b[len(resultHeader)+1:headerLen-1], sum[:]) {
		return nil, fmt.Errorf("store: %s: payload checksum mismatch", key)
	}
	return payload, nil
}

// Put durably commits payload under key: Begin and Commit back to back.
// Re-putting an existing key is a no-op: content-addressed payloads for
// the same key are byte-identical by construction.
func (s *Store) Put(key string, payload []byte) error {
	return s.Begin(key).Commit(payload)
}

// Pending is an entry whose temp file exists (or is being created) and
// whose payload is not yet known. Exactly one of Commit and Abort must
// follow Begin; both wait for the creation to finish, so no goroutine and
// no open file outlives them. A process killed in between leaves a temp
// file, which the next Open deletes.
type Pending struct {
	s   *Store
	key string
	// created is closed once tmp and err are final.
	created chan struct{}
	tmp     *os.File
	err     error
}

// Begin starts an entry for key and returns at once: the temp file — which
// needs nothing of the payload, and is a third of what committing costs —
// is created on a goroutine of its own while the caller computes what to
// store. An invalid key, or a failure to create the file, is reported by
// Commit.
func (s *Store) Begin(key string) *Pending {
	p := &Pending{s: s, key: key, created: make(chan struct{})}
	if !validKey(key) {
		p.err = fmt.Errorf("store: invalid content key %q", key)
		close(p.created)
		return p
	}
	go func() {
		p.tmp, p.err = os.CreateTemp(s.dir, tmpPrefix+key+"-")
		close(p.created)
	}()
	return p
}

// has reports whether key is committed.
func (s *Store) has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.keys[key]
	return ok
}

// Abort gives the entry up and removes its temp file.
func (p *Pending) Abort() {
	<-p.created
	if p.tmp != nil {
		p.tmp.Close()
		os.Remove(p.tmp.Name())
	}
}

// Commit durably stores payload under the entry's key: header and payload
// are written to the temp file, which is fsync'd, then renamed into place
// (and the directory fsync'd), so readers — including a post-crash Open —
// see either the whole entry or nothing. The store's lock is held for the
// key check and the insert only, never across the disk: a Get of another
// key does not queue behind this entry's fsyncs, and two commits of one
// key both rename the same bytes onto the same name.
func (p *Pending) Commit(payload []byte) error {
	t0 := time.Now()
	err := p.commit(payload)
	p.s.mu.Lock()
	f := p.s.onCommit
	p.s.mu.Unlock()
	if f != nil {
		f(time.Since(t0), err)
	}
	return err
}

func (p *Pending) commit(payload []byte) error {
	<-p.created
	if p.err != nil {
		return p.err
	}
	s, tmp := p.s, p.tmp
	if s.has(p.key) {
		p.Abort() // the bytes under a content address are already these
		return nil
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	sum := sha256.Sum256(payload)
	head := make([]byte, 0, headerLen)
	head = append(head, resultHeader+" "...)
	head = hex.AppendEncode(head, sum[:])
	head = append(head, '\n')
	if _, err := tmp.Write(head); err != nil {
		tmp.Close()
		return err
	}
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		return err
	}
	if err := s.fsync(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, p.key)); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.mu.Lock()
	s.keys[p.key] = struct{}{}
	s.mu.Unlock()
	return nil
}

// Get returns the payload committed under key. A present-but-corrupt
// entry (bit rot since Open) is deleted and reported as a miss: the
// content-addressed contract is that whatever Get returns verified.
func (s *Store) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.keys[key]; !ok {
		return nil, false
	}
	payload, err := s.readVerified(key)
	if err != nil {
		delete(s.keys, key)
		os.Remove(filepath.Join(s.dir, key))
		return nil, false
	}
	return payload, true
}

// Len returns the number of committed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.keys)
}

// Keys returns the committed content addresses in unspecified order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.keys))
	for k := range s.keys {
		out = append(out, k)
	}
	return out
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Some platforms (and some filesystems) refuse to fsync directories;
// that only weakens the power-loss window, not crash consistency, so the
// error is ignored there.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		// EINVAL from directory fsync on exotic filesystems is not a
		// durability bug in our code; EIO and friends are real.
		if pe, ok := err.(*os.PathError); ok && pe.Err.Error() == "invalid argument" {
			return nil
		}
		return err
	}
	return nil
}
