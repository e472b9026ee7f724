package core

import (
	"encoding/hex"
	"testing"

	"repro/internal/ilog"
	"repro/internal/profile"
)

// goldenSessionState pins session snapshot codec v2 byte for byte:
// EncodeState of a session with a step clock, a last query, a two-shot
// seen set, three evidence records (one a negative rating, so the
// signed varint is covered) and a drifted profile.
const goldenSessionState = "0206676f6c64656e031a7061626f6173747374726f757373207461736c65657465617264020a76303030305f733030300a76303030305f73303032030a76303030305f7330303104706c61794029000000000000403156fbde6e710800020a76303030305f733030300e636c69636b5f6b65796672616d650000000000000000403bdc0a223a33fb00020a76303030305f7330303204726174650000000000000000402ffda4dcdd7fe70102377b2275736572223a22676f6c64656e2d75736572222c22696e74657265737473223a7b22706f6c6974696373223a302e35313130347d7d"

// goldenSession builds the session goldenSessionState encodes.
func goldenSession(t testing.TB) *Session {
	t.Helper()
	arch, sys := fixture(t, Config{UseImplicit: true, UseProfile: true, ProfileLearnRate: 0.2})
	ids := arch.Collection.ShotIDs()
	user := profile.New("golden-user").SetInterest(arch.Truth.SearchTopics[0].Category, 0.5)
	sess := sys.NewSession("golden", user)
	sess.step = 3
	sess.lastQuery = arch.Truth.SearchTopics[0].Query
	for _, id := range []string{string(ids[0]), string(ids[2])} {
		d, ok := sys.shotDoc(id)
		sess.markSeen(d, ok, id)
	}
	for _, e := range []ilog.Event{
		{SessionID: "golden", Action: ilog.ActionPlay, ShotID: string(ids[1]), Seconds: 12.5},
		{SessionID: "golden", Action: ilog.ActionClickKeyframe, ShotID: string(ids[0])},
		{SessionID: "golden", Action: ilog.ActionRate, ShotID: string(ids[2]), Value: -1},
	} {
		if err := sess.Observe(e); err != nil {
			t.Fatal(err)
		}
	}
	return sess
}

func TestGoldenSessionState(t *testing.T) {
	data, err := goldenSession(t).EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != goldenSessionState {
		t.Fatalf("session codec v2 bytes moved:\n got %s\nwant %s", got, goldenSessionState)
	}
}
