package core

import (
	"testing"

	"repro/internal/collection"
	"repro/internal/eval"
	"repro/internal/ilog"
	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/synth"
)

// fixture builds a tiny synthetic archive and a system over it.
func fixture(t testing.TB, cfg Config) (*synth.Archive, *System) {
	t.Helper()
	arch, err := synth.Generate(synth.TinyConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemFromCollection(arch.Collection, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return arch, sys
}

// judgments converts a topic's qrels into eval.Judgments.
func judgments(arch *synth.Archive, topicID int) eval.Judgments {
	j := eval.Judgments{}
	for shot, g := range arch.Truth.Qrels[topicID] {
		j[string(shot)] = g
	}
	return j
}

func TestPresets(t *testing.T) {
	for _, name := range Presets() {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%s): %v", name, err)
		}
		switch name {
		case PresetBaseline:
			if cfg.UseProfile || cfg.UseImplicit {
				t.Error("baseline should adapt nothing")
			}
		case PresetCombined:
			if !cfg.UseProfile || !cfg.UseImplicit {
				t.Error("combined should adapt everything")
			}
		}
	}
	if _, err := Preset("quantum"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	arch, _ := fixture(t, Config{})
	bad := []Config{
		{K: -1},
		{ProfileAlpha: -0.1},
		{ProfileLearnRate: 2},
		{ExpandTerms: -1},
		{ExpandBeta: -1},
	}
	for i, cfg := range bad {
		if _, err := NewSystemFromCollection(arch.Collection, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewSystem(nil, nil, Config{}); err == nil {
		t.Error("nil wiring accepted")
	}
}

func TestBuildIndexShapes(t *testing.T) {
	arch, sys := fixture(t, Config{})
	eng := sys.Engine()
	if eng.NumDocs() != arch.Collection.NumShots() || eng.NumSegments() != 1 {
		t.Errorf("indexed %d docs in %d segments for %d shots, want one segment",
			eng.NumDocs(), eng.NumSegments(), arch.Collection.NumShots())
	}
	concepts := 0
	arch.Collection.Shots(func(s *collection.Shot) bool {
		for _, cs := range s.Concepts {
			concepts += eng.DocFreq(index.FieldConcept, string(cs.Concept))
		}
		return concepts == 0
	})
	if concepts == 0 {
		t.Error("no concepts indexed")
	}
}

func TestSearchOnceFindsTopicShots(t *testing.T) {
	arch, sys := fixture(t, Config{})
	okTopics := 0
	for _, st := range arch.Truth.SearchTopics {
		res, err := sys.SearchOnce(st.Query)
		if err != nil {
			t.Fatal(err)
		}
		m := eval.Compute(res.IDs(), judgments(arch, st.ID))
		if m.AP > 0.05 {
			okTopics++
		}
	}
	if okTopics < len(arch.Truth.SearchTopics)/2 {
		t.Errorf("baseline found signal on only %d/%d topics", okTopics, len(arch.Truth.SearchTopics))
	}
}

func TestImplicitFeedbackImprovesRanking(t *testing.T) {
	arch, sys := fixture(t, Config{UseImplicit: true})
	baseSys, err := NewSystemFromCollection(arch.Collection, Config{})
	if err != nil {
		t.Fatal(err)
	}
	improvedSum, baseSum := 0.0, 0.0
	for _, st := range arch.Truth.SearchTopics {
		judg := judgments(arch, st.ID)

		base, err := baseSys.SearchOnce(st.Query)
		if err != nil {
			t.Fatal(err)
		}
		baseSum += eval.Compute(base.IDs(), judg).AP

		sess := sys.NewSession("s-"+st.Query, nil)
		res, err := sess.Query(st.Query)
		if err != nil {
			t.Fatal(err)
		}
		// Feed clicks+plays on the relevant shots in the first page —
		// ideal implicit feedback.
		fed := 0
		for _, h := range res.Hits {
			if judg[h.ID] >= 1 && fed < 5 {
				fed++
				err := sess.ObserveAll([]ilog.Event{
					{SessionID: sess.ID(), Action: ilog.ActionClickKeyframe, ShotID: h.ID, TopicID: st.ID},
					{SessionID: sess.ID(), Action: ilog.ActionPlay, ShotID: h.ID, Seconds: 20, TopicID: st.ID},
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		adapted, err := sess.Query(st.Query)
		if err != nil {
			t.Fatal(err)
		}
		improvedSum += eval.Compute(adapted.IDs(), judg).AP
	}
	if improvedSum <= baseSum {
		t.Errorf("implicit adaptation MAP sum %v not above baseline %v", improvedSum, baseSum)
	}
}

func TestProfileRerankingPromotesLikedCategory(t *testing.T) {
	arch, sys := fixture(t, Config{UseProfile: true, ProfileAlpha: 0.5})
	st := arch.Truth.SearchTopics[0]
	liked := st.Category

	love := profile.New("fan").SetInterest(liked, 1.0)
	hate := profile.New("hater").SetInterest(liked, 0.0)

	catAt := func(ids []string, k int) (likedCount int) {
		for i := 0; i < k && i < len(ids); i++ {
			story := arch.Collection.StoryOfShot(collection.ShotID(ids[i]))
			if story != nil && story.Category == liked {
				likedCount++
			}
		}
		return likedCount
	}
	// Query with vocabulary from the liked category plus another so
	// both categories appear in the candidates.
	other := arch.Truth.SearchTopics[1]
	mixedQuery := st.Query + " " + other.Query

	resLove, err := sys.NewSession("s1", love).Query(mixedQuery)
	if err != nil {
		t.Fatal(err)
	}
	resHate, err := sys.NewSession("s2", hate).Query(mixedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if catAt(resLove.IDs(), 10) <= catAt(resHate.IDs(), 10) {
		t.Errorf("liked category not promoted: love=%d hate=%d",
			catAt(resLove.IDs(), 10), catAt(resHate.IDs(), 10))
	}
}

func TestNeutralProfileIsNoOp(t *testing.T) {
	arch, sys := fixture(t, Config{UseProfile: true})
	baseSys, err := NewSystemFromCollection(arch.Collection, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := arch.Truth.SearchTopics[2]
	a, err := sys.NewSession("s", nil).Query(st.Query)
	if err != nil {
		t.Fatal(err)
	}
	b, err := baseSys.SearchOnce(st.Query)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Hits) != len(b.Hits) {
		t.Fatalf("result sizes differ: %d vs %d", len(a.Hits), len(b.Hits))
	}
	for i := range a.Hits {
		if a.Hits[i].ID != b.Hits[i].ID {
			t.Fatalf("neutral profile changed ranking at %d: %s vs %s", i, a.Hits[i].ID, b.Hits[i].ID)
		}
	}
}

func TestObserveValidatesAndDrifts(t *testing.T) {
	arch, sys := fixture(t, Config{ProfileLearnRate: 0.3})
	st := arch.Truth.SearchTopics[0]
	rel := arch.Truth.Qrels.Relevant(st.ID, 1)
	sess := sys.NewSession("s", nil)

	if err := sess.Observe(ilog.Event{}); err == nil {
		t.Error("invalid event accepted")
	}
	before := sess.User().Interest(st.Category)
	err := sess.Observe(ilog.Event{
		SessionID: "s", Action: ilog.ActionClickKeyframe,
		ShotID: string(rel[0]), TopicID: st.ID,
	})
	if err != nil {
		t.Fatal(err)
	}
	after := sess.User().Interest(st.Category)
	if after <= before {
		t.Errorf("positive evidence should raise interest: %v -> %v", before, after)
	}
	// Negative rating drifts down.
	err = sess.Observe(ilog.Event{
		SessionID: "s", Action: ilog.ActionRate, Value: -1,
		ShotID: string(rel[0]), TopicID: st.ID,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.User().Interest(st.Category) >= after {
		t.Error("negative rating should lower interest")
	}
}

func TestSessionBookkeeping(t *testing.T) {
	arch, sys := fixture(t, Config{UseImplicit: true})
	st := arch.Truth.SearchTopics[0]
	sess := sys.NewSession("sess-1", nil)
	if sess.ID() != "sess-1" || sess.Step() != 0 {
		t.Error("fresh session state wrong")
	}
	res, err := sess.Query(st.Query)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Step() != 1 || sess.LastQuery() != st.Query {
		t.Error("step/lastQuery not updated")
	}
	if sess.SeenShots() != len(res.Hits) {
		t.Errorf("seen = %d, hits = %d", sess.SeenShots(), len(res.Hits))
	}
	if len(res.Hits) > 0 && !sess.HasSeen(res.Hits[0].ID) {
		t.Error("HasSeen false for returned hit")
	}
	// Query events are accepted but contribute no evidence.
	if err := sess.Observe(ilog.Event{SessionID: "sess-1", Action: ilog.ActionQuery, Query: "x"}); err != nil {
		t.Fatal(err)
	}
	if sess.EvidenceCount() != 0 {
		t.Error("query event became evidence")
	}
	sess.Reset()
	if sess.Step() != 0 || sess.SeenShots() != 0 || sess.EvidenceCount() != 0 || sess.LastQuery() != "" {
		t.Error("Reset incomplete")
	}
}

func TestSearchWithConcepts(t *testing.T) {
	arch, sys := fixture(t, Config{})
	st := arch.Truth.SearchTopics[0]
	topic := arch.Truth.Topics[st.TopicID]
	concepts := make([]string, len(topic.Concepts))
	for i, c := range topic.Concepts {
		concepts[i] = string(c)
	}
	judg := judgments(arch, st.ID)

	textOnly, err := sys.SearchWithConcepts(st.Query, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := sys.SearchWithConcepts(st.Query, concepts, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(fused.Hits) == 0 {
		t.Fatal("fusion returned nothing")
	}
	_ = eval.Compute(textOnly.IDs(), judg)
	if _, err := sys.SearchWithConcepts(st.Query, concepts, -1); err == nil {
		t.Error("negative concept weight accepted")
	}
}

func TestMassExposed(t *testing.T) {
	arch, sys := fixture(t, Config{UseImplicit: true})
	sess := sys.NewSession("s", nil)
	shotID := string(arch.Collection.ShotIDs()[0])
	sess.Observe(ilog.Event{SessionID: "s", Action: ilog.ActionPlay, ShotID: shotID, Seconds: 10})
	if m := sess.Mass(); m[shotID] <= 0 {
		t.Errorf("mass = %v", m)
	}
}
