package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/feedback"
	"repro/internal/ilog"
	"repro/internal/profile"
	"repro/internal/synth"
)

func TestSessionSnapshotRoundTrip(t *testing.T) {
	arch, sys := fixture(t, Config{UseImplicit: true, UseProfile: true, ProfileLearnRate: 0.2})
	st := arch.Truth.SearchTopics[0]
	user := profile.New("snapuser").SetInterest(st.Category, 0.8)
	sess := sys.NewSession("snap-1", user)
	if _, err := sess.Query(st.Query); err != nil {
		t.Fatal(err)
	}
	rel := arch.Truth.Qrels.Relevant(st.ID, 1)
	for i := 0; i < 3 && i < len(rel); i++ {
		err := sess.Observe(ilog.Event{
			SessionID: "snap-1", Action: ilog.ActionClickKeyframe,
			ShotID: string(rel[i]), TopicID: st.ID, Rank: i,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Query(st.Query); err != nil {
		t.Fatal(err)
	}

	data, err := sess.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := sys.RestoreSession(data)
	if err != nil {
		t.Fatal(err)
	}
	if restored.ID() != sess.ID() || restored.Step() != sess.Step() {
		t.Errorf("identity/step mismatch: %s/%d vs %s/%d",
			restored.ID(), restored.Step(), sess.ID(), sess.Step())
	}
	if restored.LastQuery() != sess.LastQuery() {
		t.Error("last query lost")
	}
	if restored.EvidenceCount() != sess.EvidenceCount() {
		t.Errorf("evidence %d vs %d", restored.EvidenceCount(), sess.EvidenceCount())
	}
	if restored.SeenShots() != sess.SeenShots() {
		t.Errorf("seen %d vs %d", restored.SeenShots(), sess.SeenShots())
	}
	if !reflect.DeepEqual(restored.Mass(), sess.Mass()) {
		t.Error("evidence mass differs after restore")
	}
	// The drifted profile came along.
	if restored.User().Interest(st.Category) != sess.User().Interest(st.Category) {
		t.Error("profile state lost")
	}
	// And the restored session continues identically.
	a, err := sess.Query(st.Query)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Query(st.Query)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.IDs(), b.IDs()) {
		t.Error("restored session ranks differently")
	}
}

func TestSessionSnapshotEmpty(t *testing.T) {
	_, sys := fixture(t, Config{})
	sess := sys.NewSession("empty", nil)
	data, err := sess.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := sys.RestoreSession(data)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Step() != 0 || restored.EvidenceCount() != 0 {
		t.Error("empty session restore not empty")
	}
}

// TestRestoreRejectsBadData: a well-framed snapshot whose content is
// semantically invalid is refused, not half-restored.
func TestRestoreRejectsBadData(t *testing.T) {
	_, sys := fixture(t, Config{})
	cases := map[string]sessionSnapshot{
		"no session id":    {},
		"unknown action":   {ID: "x", Evidence: []feedback.Evidence{{ShotID: "s", Action: "bogus"}}},
		"evidence no shot": {ID: "x", Evidence: []feedback.Evidence{{Action: ilog.ActionPlay}}},
		"unknown category": {ID: "x", Profile: []byte(`{"interests":{"astrology":1}}`)},
		"profile not json": {ID: "x", Profile: []byte(`not json`)},
	}
	for name, snap := range cases {
		if _, err := sys.RestoreSession(snap.encode()); err == nil {
			t.Errorf("bad snapshot %q accepted", name)
		}
	}
	ok := sessionSnapshot{ID: "x"}
	if _, err := sys.RestoreSession(ok.encode()); err != nil {
		t.Fatalf("minimal valid snapshot refused: %v", err)
	}
}

// TestRestoreRejectsForeignCodecs is the hostile-input pin for the
// codec sniff: the retired v1 JSON form (any '{'-leading blob), an
// empty blob and arbitrary bytes are refused by tag with a typed
// message — never handed to a decoder, never a panic.
func TestRestoreRejectsForeignCodecs(t *testing.T) {
	_, sys := fixture(t, Config{})
	for _, tc := range []struct {
		blob, wantErr string
	}{
		{"", "empty snapshot"},
		{`{"v":1,"id":"x","step":3}`, "unrecognised snapshot codec (tag 0x7b)"},
		{`{`, "unrecognised snapshot codec (tag 0x7b)"},
		{"not json", "unrecognised snapshot codec (tag 0x6e)"},
		{"\x01\x01x", "unrecognised snapshot codec (tag 0x01)"},
	} {
		sess, err := sys.RestoreSession([]byte(tc.blob))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("blob %q: err = %v, want %q", tc.blob, err, tc.wantErr)
		}
		if sess != nil {
			t.Errorf("blob %q: a session was restored from a refused blob", tc.blob)
		}
	}
}

func TestRestoredOstensiveAges(t *testing.T) {
	arch, err := synth.Generate(synth.TinyConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	ost, err := feedback.NewOstensive(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemFromCollection(arch.Collection, Config{UseImplicit: true, Scheme: ost})
	if err != nil {
		t.Fatal(err)
	}
	sess := sys.NewSession("ost", nil)
	shot := string(arch.Collection.ShotIDs()[0])
	if err := sess.Observe(ilog.Event{SessionID: "ost", Action: ilog.ActionPlay, ShotID: shot, Seconds: 5}); err != nil {
		t.Fatal(err)
	}
	// Age the evidence by three query steps.
	st := arch.Truth.SearchTopics[0]
	for i := 0; i < 3; i++ {
		if _, err := sess.Query(st.Query); err != nil {
			t.Fatal(err)
		}
	}
	data, err := sess.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := sys.RestoreSession(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Mass(), sess.Mass()) {
		t.Errorf("ostensive mass differs: %v vs %v", restored.Mass(), sess.Mass())
	}
	_ = collection.ShotID(shot)
}
