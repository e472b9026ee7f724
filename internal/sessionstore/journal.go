// JournalStore: the crash-safe, shareable SessionStore. State changes
// are appended to one journal file as versioned, CRC-checksummed
// binary records, framed by internal/binfmt (the same package that
// seals the archive and index containers):
//
//	magic    8 bytes  "IVRSJL\x00\x01"
//	record*  each:    4-byte big-endian body length
//	                  body  = version(1) op(1) uvarint(len(id)) id payload
//	                  4-byte big-endian IEEE CRC32 of body
//
// Durability: appends are buffered by the OS and fsynced in batches
// (SyncInterval), so the hot path pays one write syscall per session
// mutation, not one fsync. Flush forces the fsync (drain paths call it
// before handing sessions to another replica); a crash loses at most
// one sync interval of tail records, and a torn tail record is
// detected by its CRC and dropped on the next open.
//
// Sharing: replicas of one front tier open the same journal path.
// Appends use O_APPEND (whole-record single writes, so records from
// concurrent processes interleave but never interleave bytes), and
// every read re-scans the journal tail first, so a session persisted
// by one replica is immediately visible to the replica that adopts it.
// An advisory flock marks live openers: compaction and torn-tail
// truncation only run when an opener holds the file exclusively.
//
// Compaction: on open (when exclusive), the journal is rewritten to
// one record per live session once dead bytes (overwritten or deleted
// records) exceed CompactMinWaste, so long-lived deployments do not
// grow without bound.
package sessionstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/binfmt"
)

var journalMagic = [8]byte{'I', 'V', 'R', 'S', 'J', 'L', 0, 1}

// ErrBadFormat reports a journal whose header is not a supported
// journal file (torn tail records are tolerated, a bad header is not).
var ErrBadFormat = errors.New("sessionstore: not a session journal or unsupported version")

const (
	recVersion byte = 1
	opPut      byte = 1
	opDelete   byte = 2

	// maxRecordBytes bounds a single record body; larger lengths are
	// treated as corruption rather than allocated.
	maxRecordBytes = 64 << 20
)

// JournalOptions tunes a JournalStore. The zero value is usable.
type JournalOptions struct {
	// SyncInterval batches fsyncs: 0 fsyncs every append (safest,
	// slowest), >0 fsyncs dirty state at this cadence on a background
	// goroutine, <0 never fsyncs (the OS decides; tests). Open's
	// default when unset via OpenJournal options is 100ms.
	SyncInterval time.Duration
	// CompactMinWaste is the dead-byte threshold above which an
	// exclusive open rewrites the journal compacted (default: compact
	// whenever dead bytes exceed live bytes and 64KiB).
	CompactMinWaste int64
}

// JournalOption configures OpenJournal.
type JournalOption func(*JournalOptions)

// WithSyncInterval sets the fsync batching cadence (see
// JournalOptions.SyncInterval).
func WithSyncInterval(d time.Duration) JournalOption {
	return func(o *JournalOptions) { o.SyncInterval = d }
}

// WithCompactMinWaste sets the compaction-on-open threshold in dead
// bytes (0 restores the default heuristic).
func WithCompactMinWaste(n int64) JournalOption {
	return func(o *JournalOptions) { o.CompactMinWaste = n }
}

// JournalStore is the append-only journal SessionStore. Safe for
// concurrent use within a process and shareable across processes (see
// the package comment for the sharing contract).
type JournalStore struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	sessions map[string][]byte
	// scanOff is how far into the file the sessions map has replayed.
	// Appends from this or other processes land beyond it; refresh
	// catches the map up before every read.
	scanOff int64
	dirty   bool
	closed  bool

	opts      JournalOptions
	compacted bool

	stopSync chan struct{}
	syncWG   sync.WaitGroup
}

// OpenJournal opens (creating if absent) the journal at path, replays
// it into memory, truncates a torn tail and compacts dead records when
// this process is the only opener, and starts the fsync batcher.
func OpenJournal(path string, options ...JournalOption) (*JournalStore, error) {
	opts := JournalOptions{SyncInterval: 100 * time.Millisecond}
	for _, o := range options {
		o(&opts)
	}
	j := &JournalStore{
		path:     path,
		sessions: make(map[string][]byte),
		opts:     opts,
		stopSync: make(chan struct{}),
	}
	if err := j.openLocked(); err != nil {
		return nil, err
	}
	if j.opts.SyncInterval > 0 {
		j.syncWG.Add(1)
		go j.syncLoop()
	}
	return j, nil
}

// openLocked opens the path, acquires the advisory lock, and replays
// the journal. It retries when the file is swapped by a concurrent
// compaction between open and lock (the inode no longer matches the
// path).
func (j *JournalStore) openLocked() error {
	for attempt := 0; ; attempt++ {
		f, err := os.OpenFile(j.path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("sessionstore: open journal: %w", err)
		}
		exclusive := true
		if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
			exclusive = false
			if err := syscall.Flock(int(f.Fd()), syscall.LOCK_SH); err != nil {
				f.Close()
				return fmt.Errorf("sessionstore: lock journal: %w", err)
			}
		}
		// A concurrent exclusive opener may have compacted (renamed a
		// new file over the path) while we waited for the lock; verify
		// we locked the inode the path still names.
		pathInfo, err := os.Stat(j.path)
		if err != nil || !os.SameFile(pathInfo, statOf(f)) {
			f.Close()
			if attempt > 10 {
				return fmt.Errorf("sessionstore: journal kept moving underneath open")
			}
			continue
		}
		j.f = f
		if err := j.replay(exclusive); err != nil {
			f.Close()
			return err
		}
		if exclusive {
			if err := j.maybeCompact(); err != nil {
				j.f.Close()
				return err
			}
			// Downgrade so other replicas can open the journal too.
			if err := syscall.Flock(int(j.f.Fd()), syscall.LOCK_SH); err != nil {
				j.f.Close()
				return fmt.Errorf("sessionstore: downgrade journal lock: %w", err)
			}
		}
		return nil
	}
}

func statOf(f *os.File) os.FileInfo {
	info, err := f.Stat()
	if err != nil {
		return nil
	}
	return info
}

// replay loads the journal into the sessions map. A fresh file gets
// the magic header; a torn or corrupt tail stops the scan at the last
// good record and is truncated away when this opener is exclusive.
func (j *JournalStore) replay(exclusive bool) error {
	info, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("sessionstore: stat journal: %w", err)
	}
	if info.Size() == 0 {
		if _, err := j.f.Write(journalMagic[:]); err != nil {
			return fmt.Errorf("sessionstore: write journal header: %w", err)
		}
		j.scanOff = int64(len(journalMagic))
		return nil
	}
	if info.Size() < int64(len(journalMagic)) {
		return ErrBadFormat
	}
	var hdr [8]byte
	if _, err := j.f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("sessionstore: read journal header: %w", err)
	}
	if hdr != journalMagic {
		return ErrBadFormat
	}
	j.scanOff = int64(len(journalMagic))
	j.scanTail()
	if exclusive && j.scanOff < info.Size() {
		// Torn tail (crash mid-append): drop it so future appends are
		// readable again.
		if err := j.f.Truncate(j.scanOff); err != nil {
			return fmt.Errorf("sessionstore: truncate torn tail: %w", err)
		}
	}
	return nil
}

// scanTail replays records in [scanOff, EOF) into the sessions map,
// advancing scanOff past every well-formed record. It stops (without
// advancing) at the first truncated or corrupt record. Callers hold mu
// (or are inside open, before the store is shared).
func (j *JournalStore) scanTail() {
	info, err := j.f.Stat()
	if err != nil {
		return
	}
	size := info.Size()
	for j.scanOff < size {
		body, next, err := binfmt.ReadRecordAt(j.f, j.scanOff, size, maxRecordBytes)
		if err != nil {
			return
		}
		id, payload, op, err := decodeBody(body)
		if err != nil {
			return
		}
		switch op {
		case opPut:
			j.sessions[id] = payload
		case opDelete:
			delete(j.sessions, id)
		}
		j.scanOff = next
	}
}

// decodeBody splits a record body into its parts. The payload aliases
// body's backing array (callers copy on the way out of the store).
func decodeBody(body []byte) (id string, payload []byte, op byte, err error) {
	r := binfmt.NewReader(body)
	version, op := r.Byte(), r.Byte()
	id = r.String()
	payload = r.Rest()
	if r.Done() != nil || version != recVersion || (op != opPut && op != opDelete) {
		return "", nil, 0, ErrBadFormat
	}
	return id, payload, op, nil
}

// encodeRecord frames one record ready to append.
func encodeRecord(op byte, id string, payload []byte) []byte {
	body := make([]byte, 0, 2+binary.MaxVarintLen64+len(id)+len(payload))
	body = binfmt.AppendString(append(body, recVersion, op), id)
	body = append(body, payload...)
	return binfmt.AppendRecord(make([]byte, 0, binfmt.RecordOverhead+len(body)), body)
}

// recordSize is len(encodeRecord(op, id, payload)) without building it.
func recordSize(id string, payload []byte) int64 {
	var idLen [binary.MaxVarintLen64]byte
	return int64(binfmt.RecordOverhead + 2 + len(binary.AppendUvarint(idLen[:0], uint64(len(id)))) + len(id) + len(payload))
}

// maybeCompact rewrites the journal to one record per live session
// when dead bytes exceed the configured threshold. Only called while
// holding the exclusive lock on open.
func (j *JournalStore) maybeCompact() error {
	info, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("sessionstore: stat journal: %w", err)
	}
	var live int64
	for id, payload := range j.sessions {
		live += recordSize(id, payload)
	}
	dead := info.Size() - int64(len(journalMagic)) - live
	threshold := j.opts.CompactMinWaste
	if threshold == 0 && (dead <= live || dead <= 64<<10) {
		return nil // default heuristic: >50% dead and >64KiB
	}
	if dead < threshold || dead <= 0 {
		return nil
	}
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, ".ivrsjl-*")
	if err != nil {
		return fmt.Errorf("sessionstore: compact: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(journalMagic[:]); err != nil {
		tmp.Close()
		return fmt.Errorf("sessionstore: compact: %w", err)
	}
	ids := make([]string, 0, len(j.sessions))
	for id := range j.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if _, err := tmp.Write(encodeRecord(opPut, id, j.sessions[id])); err != nil {
			tmp.Close()
			return fmt.Errorf("sessionstore: compact: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("sessionstore: compact: %w", err)
	}
	// Lock the replacement before it becomes visible so an opener that
	// races the rename blocks until we finish, then sees the new inode.
	if err := syscall.Flock(int(tmp.Fd()), syscall.LOCK_EX); err != nil {
		tmp.Close()
		return fmt.Errorf("sessionstore: compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		tmp.Close()
		return fmt.Errorf("sessionstore: compact: %w", err)
	}
	old := j.f
	j.f = tmp
	old.Close()
	info, err = j.f.Stat()
	if err != nil {
		return fmt.Errorf("sessionstore: compact: %w", err)
	}
	j.scanOff = info.Size()
	j.compacted = true
	return nil
}

// Compacted reports whether the open rewrote the journal (telemetry
// and tests).
func (j *JournalStore) Compacted() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.compacted
}

// append writes one framed record and applies the fsync policy.
func (j *JournalStore) append(rec []byte) error {
	if _, err := j.f.Write(rec); err != nil {
		return fmt.Errorf("sessionstore: append: %w", err)
	}
	j.dirty = true
	if j.opts.SyncInterval == 0 {
		return j.syncNow()
	}
	return nil
}

func (j *JournalStore) syncNow() error {
	if !j.dirty {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("sessionstore: fsync: %w", err)
	}
	j.dirty = false
	return nil
}

// syncLoop fsyncs dirty state at the configured cadence until Close.
func (j *JournalStore) syncLoop() {
	defer j.syncWG.Done()
	t := time.NewTicker(j.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-j.stopSync:
			return
		case <-t.C:
			j.mu.Lock()
			if !j.closed {
				_ = j.syncNow()
			}
			j.mu.Unlock()
		}
	}
}

// Put implements SessionStore: append a put record and index it.
func (j *JournalStore) Put(id string, state []byte) error {
	if id == "" {
		return fmt.Errorf("sessionstore: empty session id")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if err := j.append(encodeRecord(opPut, id, state)); err != nil {
		return err
	}
	cp := make([]byte, len(state))
	copy(cp, state)
	j.sessions[id] = cp
	return nil
}

// Get implements SessionStore. The journal tail is re-scanned first so
// records appended by other replica processes are visible.
func (j *JournalStore) Get(id string) ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, ErrClosed
	}
	j.scanTail()
	state, ok := j.sessions[id]
	if !ok {
		return nil, ErrNotFound
	}
	cp := make([]byte, len(state))
	copy(cp, state)
	return cp, nil
}

// Delete implements SessionStore: append a tombstone. Unknown IDs are
// a no-op (after a tail re-scan), so racing replicas can both clean up.
func (j *JournalStore) Delete(id string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	j.scanTail()
	if _, ok := j.sessions[id]; !ok {
		return nil
	}
	if err := j.append(encodeRecord(opDelete, id, nil)); err != nil {
		return err
	}
	delete(j.sessions, id)
	return nil
}

// List implements SessionStore (tail re-scan included).
func (j *JournalStore) List() ([]string, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, ErrClosed
	}
	j.scanTail()
	ids := make([]string, 0, len(j.sessions))
	for id := range j.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// Len reports the number of live sessions in the journal's view.
func (j *JournalStore) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.scanTail()
	return len(j.sessions)
}

// Flush forces an fsync of any batched appends. Drain/handoff paths
// call it before another replica is expected to adopt the sessions.
func (j *JournalStore) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.syncNow()
}

// Close flushes, releases the advisory lock and closes the file.
// Idempotent.
func (j *JournalStore) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	err := j.syncNow()
	j.mu.Unlock()
	close(j.stopSync)
	j.syncWG.Wait()
	_ = syscall.Flock(int(j.f.Fd()), syscall.LOCK_UN)
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Ensure both implementations satisfy the interface.
var (
	_ SessionStore = (*MemoryStore)(nil)
	_ SessionStore = (*JournalStore)(nil)
	_ io.Closer    = (*JournalStore)(nil)
)
