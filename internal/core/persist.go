package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/binfmt"
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
	snap.Seen = make([]string, 0, sess.SeenShots())
	for d := range sess.seen {
		snap.Seen = append(snap.Seen, sess.sys.shots[d].id)
	}
	for id := range sess.seenOther {
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
	b := []byte{binarySnapshotTag}
	b = binfmt.AppendString(b, snap.ID)
	b = binary.AppendUvarint(b, uint64(snap.Step))
	b = binfmt.AppendString(b, snap.LastQuery)
	b = binary.AppendUvarint(b, uint64(len(snap.Seen)))
	for _, id := range snap.Seen {
		b = binfmt.AppendString(b, id)
	}
	b = binary.AppendUvarint(b, uint64(len(snap.Evidence)))
	for _, ev := range snap.Evidence {
		b = binfmt.AppendString(b, ev.ShotID)
		b = binfmt.AppendString(b, string(ev.Action))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(ev.Seconds))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(ev.ShotSeconds))
		b = binary.AppendVarint(b, int64(ev.Rating))
		b = binary.AppendUvarint(b, uint64(ev.Step))
	}
	return binfmt.AppendBytes(b, snap.Profile)
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
		d, ok := s.shotDoc(id)
		sess.markSeen(d, ok, id)
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

// minEvidenceBytes is the smallest encoded evidence record: two empty
// strings, two 8-byte floats and two one-byte varints.
const minEvidenceBytes = 20

// decodeBinarySnapshot parses the binary codec.
func decodeBinarySnapshot(data []byte, snap *sessionSnapshot) error {
	r := binfmt.NewReader(data[1:])
	snap.ID = r.String()
	snap.Step = int(r.Uvarint())
	snap.LastQuery = r.String()
	snap.Seen = make([]string, r.Count(r.Uvarint(), 1))
	for i := range snap.Seen {
		snap.Seen[i] = r.String()
	}
	snap.Evidence = make([]feedback.Evidence, r.Count(r.Uvarint(), minEvidenceBytes))
	for i := range snap.Evidence {
		snap.Evidence[i] = feedback.Evidence{
			ShotID:      r.String(),
			Action:      ilog.Action(r.String()),
			Seconds:     r.Float64BE(),
			ShotSeconds: r.Float64BE(),
			Rating:      int(r.Varint()),
			Step:        int(r.Uvarint()),
		}
	}
	snap.Profile = r.Bytes()
	if err := r.Done(); err != nil {
		return fmt.Errorf("core: restore: corrupt binary snapshot: %w", err)
	}
	return nil
}
