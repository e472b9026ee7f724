package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/feedback"
	"repro/internal/ilog"
	"repro/internal/profile"
)

// sessionSnapshot is the durable form of a session's state: what the
// binary codec writes and restore replays.
type sessionSnapshot struct {
	ID        string
	Step      int
	LastQuery string
	Seen      []string
	Evidence  []feedback.Evidence
	Profile   []byte // the profile's JSON form; empty without one
}

// binarySnapshotTag is both the codec version and the sniff byte of an
// encoded session.
const binarySnapshotTag byte = 2

// snapshot collects the session's durable state. Seen IDs are sorted
// so the encoding is deterministic byte-for-byte for a given session
// state.
func (sess *Session) snapshot() (sessionSnapshot, error) {
	snap := sessionSnapshot{
		ID:        sess.id,
		Step:      sess.step,
		LastQuery: sess.lastQuery,
		Evidence:  sess.acc.Evidence(),
	}
	snap.Seen = make([]string, 0, len(sess.seen))
	for id := range sess.seen {
		snap.Seen = append(snap.Seen, id)
	}
	sort.Strings(snap.Seen)
	if sess.user != nil {
		raw, err := json.Marshal(sess.user)
		if err != nil {
			return sessionSnapshot{}, fmt.Errorf("core: snapshot profile: %w", err)
		}
		snap.Profile = raw
	}
	return snap, nil
}

// EncodeState serialises the session's durable state (profile,
// evidence, seen set, clocks) to the compact binary codec — the form
// the SessionManager writes through to its SessionStore — so it can be
// restored across process restarts. The owning System is not part of
// the state; restore against a system over the same collection. The
// encoding is deterministic (sorted seen set, evidence in arrival
// order), so identical session states produce identical bytes.
func (sess *Session) EncodeState() ([]byte, error) {
	snap, err := sess.snapshot()
	if err != nil {
		return nil, err
	}
	return snap.encode(), nil
}

func (snap *sessionSnapshot) encode() []byte {
	var buf bytes.Buffer
	buf.WriteByte(binarySnapshotTag)
	putString(&buf, snap.ID)
	putUvarint(&buf, uint64(snap.Step))
	putString(&buf, snap.LastQuery)
	putUvarint(&buf, uint64(len(snap.Seen)))
	for _, id := range snap.Seen {
		putString(&buf, id)
	}
	putUvarint(&buf, uint64(len(snap.Evidence)))
	for _, ev := range snap.Evidence {
		putString(&buf, ev.ShotID)
		putString(&buf, string(ev.Action))
		putFloat(&buf, ev.Seconds)
		putFloat(&buf, ev.ShotSeconds)
		putVarint(&buf, int64(ev.Rating))
		putUvarint(&buf, uint64(ev.Step))
	}
	putBytes(&buf, snap.Profile)
	return buf.Bytes()
}

// RestoreSession rebuilds a session from EncodeState bytes against
// this system. The session resumes with the same evidence, seen set,
// iteration clock and (possibly drifted) profile; because evidence is
// replayed through the accumulator, the restored EvidenceFingerprint
// is bit-identical to the live session's.
func (s *System) RestoreSession(data []byte) (*Session, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: restore: empty snapshot")
	}
	if data[0] != binarySnapshotTag {
		return nil, fmt.Errorf("core: restore: unrecognised snapshot codec (tag 0x%02x)", data[0])
	}
	var snap sessionSnapshot
	if err := decodeBinarySnapshot(data, &snap); err != nil {
		return nil, err
	}
	return s.restoreFromSnapshot(&snap)
}

func (s *System) restoreFromSnapshot(snap *sessionSnapshot) (*Session, error) {
	if snap.ID == "" {
		return nil, fmt.Errorf("core: restore: snapshot without session id")
	}
	var user *profile.Profile
	if len(snap.Profile) > 0 {
		user = &profile.Profile{}
		if err := json.Unmarshal(snap.Profile, user); err != nil {
			return nil, fmt.Errorf("core: restore profile: %w", err)
		}
	}
	sess := s.NewSession(snap.ID, user)
	sess.step = snap.Step
	sess.lastQuery = snap.LastQuery
	for _, id := range snap.Seen {
		sess.seen[id] = true
	}
	for i, ev := range snap.Evidence {
		if !ev.Action.Valid() {
			return nil, fmt.Errorf("core: restore: evidence %d has unknown action %q", i, ev.Action)
		}
		if err := sess.acc.Observe(ev); err != nil {
			return nil, fmt.Errorf("core: restore: evidence %d: %w", i, err)
		}
	}
	// Align the accumulator clock with the restored session clock so
	// ostensive ages match the original session exactly.
	sess.acc.SetStep(snap.Step)
	if sess.acc.Step() > sess.step {
		sess.step = sess.acc.Step()
	}
	return sess, nil
}

// decodeBinarySnapshot parses the binary codec.
func decodeBinarySnapshot(data []byte, snap *sessionSnapshot) error {
	r := binReader{b: data, off: 1}
	snap.ID = r.str()
	snap.Step = int(r.uvarint())
	snap.LastQuery = r.str()
	nSeen := r.uvarint()
	if r.err == nil && nSeen > uint64(len(data)) {
		return fmt.Errorf("core: restore: corrupt binary snapshot (seen count %d)", nSeen)
	}
	snap.Seen = make([]string, 0, nSeen)
	for i := uint64(0); i < nSeen && r.err == nil; i++ {
		snap.Seen = append(snap.Seen, r.str())
	}
	nEv := r.uvarint()
	if r.err == nil && nEv > uint64(len(data)) {
		return fmt.Errorf("core: restore: corrupt binary snapshot (evidence count %d)", nEv)
	}
	snap.Evidence = make([]feedback.Evidence, 0, nEv)
	for i := uint64(0); i < nEv && r.err == nil; i++ {
		snap.Evidence = append(snap.Evidence, feedback.Evidence{
			ShotID:      r.str(),
			Action:      ilog.Action(r.str()),
			Seconds:     r.float(),
			ShotSeconds: r.float(),
			Rating:      int(r.varint()),
			Step:        int(r.uvarint()),
		})
	}
	snap.Profile = r.bytes()
	if r.err != nil {
		return fmt.Errorf("core: restore: %w", r.err)
	}
	if r.off != len(data) {
		return fmt.Errorf("core: restore: %d trailing bytes after binary snapshot", len(data)-r.off)
	}
	return nil
}

// --- little binary codec helpers (varint framing, BE float bits) ---

func putUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func putVarint(buf *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutVarint(tmp[:], v)])
}

func putBytes(buf *bytes.Buffer, b []byte) {
	putUvarint(buf, uint64(len(b)))
	buf.Write(b)
}

func putString(buf *bytes.Buffer, s string) {
	putUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

func putFloat(buf *bytes.Buffer, f float64) {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], math.Float64bits(f))
	buf.Write(tmp[:])
}

// binReader is a cursor over binary snapshot bytes; the first decode
// error sticks and every later read returns zero values.
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("truncated uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.err = fmt.Errorf("truncated field at offset %d (want %d bytes)", r.off, n)
		return nil
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

func (r *binReader) str() string { return string(r.bytes()) }

func (r *binReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b)-r.off < 8 {
		r.err = fmt.Errorf("truncated float at offset %d", r.off)
		return 0
	}
	f := math.Float64frombits(binary.BigEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return f
}
