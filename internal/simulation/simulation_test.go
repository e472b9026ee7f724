package simulation

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/ilog"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/ui"
)

// evalRun adapts eval.EvaluateRun for test readability.
func evalRun(run *eval.Run, qs eval.QrelSet) (map[string]eval.Metrics, eval.Metrics, []string) {
	return eval.EvaluateRun(run, qs)
}

func fixture(t testing.TB, cfg core.Config) (*synth.Archive, *core.System) {
	t.Helper()
	arch, err := synth.Generate(synth.TinyConfig(), 21)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystemFromCollection(arch.Collection, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return arch, sys
}

func TestStereotypesValid(t *testing.T) {
	for _, st := range Stereotypes() {
		if err := st.Validate(); err != nil {
			t.Errorf("%s: %v", st.Name, err)
		}
	}
	bad := Casual()
	bad.Accuracy = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("bad accuracy accepted")
	}
	bad = Casual()
	bad.Patience = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero patience accepted")
	}
	bad = Casual()
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty name accepted")
	}
}

func TestTaskTypesApply(t *testing.T) {
	base := Casual()
	for _, tt := range TaskTypes() {
		st := tt.Apply(base)
		if st.PlayFracRel != tt.PlayFracRel || st.PlayFracNonRel != tt.PlayFracNonRel {
			t.Errorf("%s not applied", tt.Name)
		}
		if err := st.Validate(); err != nil {
			t.Errorf("%s produces invalid stereotype: %v", tt.Name, err)
		}
		if st.Name == base.Name {
			t.Error("task type should rename stereotype")
		}
	}
}

func TestRunSessionProducesValidLog(t *testing.T) {
	arch, sys := fixture(t, core.Config{UseImplicit: true})
	sim, err := New(arch, sys, ui.Desktop(), Diligent(), 1)
	if err != nil {
		t.Fatal(err)
	}
	topic := arch.Truth.SearchTopics[0]
	sr, err := sim.RunSession("sess-1", nil, topic, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Events) == 0 {
		t.Fatal("no events produced")
	}
	queries := 0
	for i, e := range sr.Events {
		if err := e.Validate(); err != nil {
			t.Fatalf("event %d invalid: %v", i, err)
		}
		if e.SessionID != "sess-1" || e.Interface != "desktop" || e.TopicID != topic.ID {
			t.Fatalf("event %d metadata wrong: %+v", i, e)
		}
		if e.Action == ilog.ActionQuery {
			queries++
		}
		if i > 0 && e.Time.Before(sr.Events[i-1].Time) {
			t.Fatal("event times not monotone")
		}
	}
	if queries != len(sr.PerIteration) {
		t.Errorf("queries %d != iterations %d", queries, len(sr.PerIteration))
	}
	if queries == 0 || queries > 3 {
		t.Errorf("query count %d outside (0,3]", queries)
	}
	if sr.DistinctSeen == 0 {
		t.Error("no shots examined")
	}
	if sr.EffortSpent <= 0 || sr.EffortSpent > ui.Desktop().SessionBudget {
		t.Errorf("effort = %v", sr.EffortSpent)
	}
	if sr.Final != sr.PerIteration[len(sr.PerIteration)-1] {
		t.Error("Final != last iteration")
	}
}

func TestRunSessionDeterministic(t *testing.T) {
	arch, sys := fixture(t, core.Config{UseImplicit: true})
	topic := arch.Truth.SearchTopics[1]
	run := func() *SessionResult {
		sim, err := New(arch, sys, ui.Desktop(), Casual(), 42)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := sim.RunSession("d", nil, topic, 3)
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}
	a, b := run(), run()
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if !reflect.DeepEqual(ea, eb) {
			t.Fatalf("event %d differs: %+v vs %+v", i, ea, eb)
		}
	}
	if !reflect.DeepEqual(a.PerIteration, b.PerIteration) {
		t.Error("metrics differ across identical runs")
	}
}

func TestTVAffordancesRespected(t *testing.T) {
	arch, sys := fixture(t, core.Config{UseImplicit: true})
	sim, err := New(arch, sys, ui.TV(), Diligent(), 7)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := sim.RunSession("tv-1", nil, arch.Truth.SearchTopics[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sr.Events {
		if e.Action == ilog.ActionSlide || e.Action == ilog.ActionHighlight {
			t.Fatalf("tv emitted unsupported action %s", e.Action)
		}
	}
}

func TestDesktopEmitsMoreImplicitThanTV(t *testing.T) {
	arch, sys := fixture(t, core.Config{UseImplicit: true})
	topic := arch.Truth.SearchTopics[0]
	count := func(iface *ui.Interface) int {
		total := 0
		for s := int64(0); s < 5; s++ {
			sim, err := New(arch, sys, iface, Casual(), 100+s)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := sim.RunSession("x", nil, topic, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range sr.Events {
				switch e.Action {
				case ilog.ActionQuery, ilog.ActionRate:
				default:
					total++
				}
			}
		}
		return total
	}
	d, tv := count(ui.Desktop()), count(ui.TV())
	if d <= tv {
		t.Errorf("desktop implicit events %d should exceed tv %d", d, tv)
	}
}

func TestSimulatorValidation(t *testing.T) {
	arch, sys := fixture(t, core.Config{})
	if _, err := New(nil, sys, ui.Desktop(), Casual(), 1); err == nil {
		t.Error("nil archive accepted")
	}
	bad := Casual()
	bad.ClickRel = 2
	if _, err := New(arch, sys, ui.Desktop(), bad, 1); err == nil {
		t.Error("invalid stereotype accepted")
	}
	sim, _ := New(arch, sys, ui.Desktop(), Casual(), 1)
	if _, err := sim.RunSession("s", nil, nil, 3); err == nil {
		t.Error("nil topic accepted")
	}
	if _, err := sim.RunSession("s", nil, arch.Truth.SearchTopics[0], 0); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestMakeUsers(t *testing.T) {
	users := MakeUsers(7)
	if len(users) != 7 {
		t.Fatalf("made %d users", len(users))
	}
	for i, u := range users {
		if u.Profile == nil || u.Profile.UserID == "" {
			t.Fatalf("user %d has no profile", i)
		}
		if err := u.Stereotype.Validate(); err != nil {
			t.Fatalf("user %d stereotype: %v", i, err)
		}
		if len(u.Profile.Categories()) != 2 {
			t.Errorf("user %d should declare 2 interests", i)
		}
	}
	// Stereotypes rotate.
	if users[0].Stereotype.Name == users[1].Stereotype.Name {
		t.Error("stereotypes should rotate")
	}
}

func TestRunStudyAggregates(t *testing.T) {
	arch, sys := fixture(t, core.Config{UseImplicit: true})
	users := MakeUsers(2)
	topics := arch.Truth.SearchTopics[:3]
	study, err := RunStudy(arch, sys, ui.Desktop(), users, topics, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Sessions) != len(users)*len(topics) {
		t.Errorf("sessions = %d, want %d", len(study.Sessions), len(users)*len(topics))
	}
	if len(study.Events) == 0 {
		t.Error("study produced no events")
	}
	if len(study.PerTopicAP) != len(topics) {
		t.Errorf("per-topic AP for %d topics, want %d", len(study.PerTopicAP), len(topics))
	}
	if study.MeanDistinctSeen <= 0 {
		t.Error("no exploration recorded")
	}
	// Session IDs unique.
	seen := map[string]bool{}
	for _, s := range study.Sessions {
		if seen[s.SessionID] {
			t.Fatalf("duplicate session id %s", s.SessionID)
		}
		seen[s.SessionID] = true
	}
	if _, err := RunStudy(arch, sys, ui.Desktop(), nil, topics, 2, 5); err == nil {
		t.Error("no users accepted")
	}
}

func TestStudyProfilesDoNotLeakAcrossSessions(t *testing.T) {
	arch, sys := fixture(t, core.Config{UseProfile: true, ProfileLearnRate: 0.5})
	users := MakeUsers(1)
	before, _ := users[0].Profile.MarshalJSON()
	_, err := RunStudy(arch, sys, ui.Desktop(), users, arch.Truth.SearchTopics[:2], 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := users[0].Profile.MarshalJSON()
	if string(before) != string(after) {
		t.Error("study mutated the caller's profile")
	}
}

func TestReplayReproducesAdaptation(t *testing.T) {
	arch, sys := fixture(t, core.Config{UseImplicit: true})
	users := MakeUsers(2)
	topics := arch.Truth.SearchTopics[:2]
	study, err := RunStudy(arch, sys, ui.Desktop(), users, topics, 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the logs through a baseline and through the adaptive
	// system: the adaptive replay should do at least as well on MAP.
	baseSys, err := core.NewSystemFromCollection(arch.Collection, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	baseM, err := Replay(baseSys, study.Events, arch.Truth.Qrels)
	if err != nil {
		t.Fatal(err)
	}
	adaptM, err := Replay(sys, study.Events, arch.Truth.Qrels)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseM) != len(adaptM) || len(baseM) != len(study.Sessions) {
		t.Fatalf("replay session counts: base=%d adapt=%d want=%d", len(baseM), len(adaptM), len(study.Sessions))
	}
	var baseSum, adaptSum float64
	for i := range baseM {
		baseSum += baseM[i].AP
		adaptSum += adaptM[i].AP
	}
	if adaptSum < baseSum {
		t.Errorf("adaptive replay MAP sum %v below baseline %v", adaptSum, baseSum)
	}
}

func TestRunDriftSession(t *testing.T) {
	arch, sys := fixture(t, core.Config{UseImplicit: true})
	topicA, topicB := arch.Truth.SearchTopics[0], arch.Truth.SearchTopics[1]
	sim, err := New(arch, sys, ui.Desktop(), Casual(), 77)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := sim.RunDriftSession("drift", nil, topicA, topicB, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Metrics cover only the B phase.
	if len(sr.PerIteration) == 0 || len(sr.PerIteration) > 3 {
		t.Fatalf("B-phase iterations = %d, want 1..3", len(sr.PerIteration))
	}
	if sr.TopicID != topicB.ID {
		t.Errorf("result topic = %d, want %d", sr.TopicID, topicB.ID)
	}
	// Effort covers both phases, within two tasks' worth of budget.
	if budget := 2 * ui.Desktop().SessionBudget; sr.EffortSpent <= 0 || sr.EffortSpent > budget {
		t.Errorf("effort = %v, want in (0, %v]", sr.EffortSpent, budget)
	}
	// Events span both phases, with topic IDs switching.
	sawA, sawB := false, false
	for _, e := range sr.Events {
		if err := e.Validate(); err != nil {
			t.Fatalf("invalid event: %v", err)
		}
		switch e.TopicID {
		case topicA.ID:
			sawA = true
		case topicB.ID:
			sawB = true
		}
	}
	if !sawA || !sawB {
		t.Errorf("drift session missed a phase: A=%v B=%v", sawA, sawB)
	}
	// Validation.
	if _, err := sim.RunDriftSession("x", nil, nil, topicB, 1, 1); err == nil {
		t.Error("nil topic accepted")
	}
	if _, err := sim.RunDriftSession("x", nil, topicA, topicB, 0, 1); err == nil {
		t.Error("zero phase-A iterations accepted")
	}
	if _, err := sim.RunDriftSession("x", nil, topicA, topicB, 1, 0); err == nil {
		t.Error("zero phase-B iterations accepted")
	}
}

func TestAlignedPairs(t *testing.T) {
	arch, _ := fixture(t, core.Config{})
	topics := arch.Truth.SearchTopics[:3]
	pairs := AlignedPairs(topics, 2)
	if len(pairs) != 6 {
		t.Fatalf("pairs = %d, want 6", len(pairs))
	}
	for _, pr := range pairs {
		if pr.User.Profile.Interest(pr.Topic.Category) < 0.8 {
			t.Errorf("pair user not aligned with topic category %s", pr.Topic.Category)
		}
	}
	all := AllPairs(MakeUsers(2), topics)
	if len(all) != 6 {
		t.Errorf("AllPairs = %d, want 6", len(all))
	}
}

func TestRunStudyPairsValidation(t *testing.T) {
	arch, sys := fixture(t, core.Config{})
	if _, err := RunStudyPairs(arch, sys, ui.Desktop(), nil, 2, 1); err == nil {
		t.Error("empty pairs accepted")
	}
	if _, err := RunStudyPairs(arch, sys, ui.Desktop(), []StudyPair{{}}, 2, 1); err == nil {
		t.Error("nil pair members accepted")
	}
}

func TestReformulation(t *testing.T) {
	arch, sys := fixture(t, core.Config{})
	topic := arch.Truth.SearchTopics[0]
	st := Diligent()
	st.ReformulateProb = 1 // always reformulate after the first pass
	sim, err := New(arch, sys, ui.Desktop(), st, 5)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := sim.RunSession("reform", nil, topic, 3)
	if err != nil {
		t.Fatal(err)
	}
	var queries []string
	for _, e := range sr.Events {
		if e.Action == ilog.ActionQuery {
			queries = append(queries, e.Query)
		}
	}
	if len(queries) < 2 {
		t.Fatalf("need >= 2 query iterations, got %d", len(queries))
	}
	if queries[0] != topic.Query {
		t.Errorf("first query = %q, want the short form", queries[0])
	}
	for _, q := range queries[1:] {
		if q != topic.Verbose {
			t.Errorf("reformulated query = %q, want verbose form %q", q, topic.Verbose)
		}
	}
	// Built-in stereotypes never reformulate.
	sim2, err := New(arch, sys, ui.Desktop(), Diligent(), 5)
	if err != nil {
		t.Fatal(err)
	}
	sr2, err := sim2.RunSession("noreform", nil, topic, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sr2.Events {
		if e.Action == ilog.ActionQuery && e.Query != topic.Query {
			t.Errorf("default stereotype reformulated: %q", e.Query)
		}
	}
	// Validation range check.
	bad := Diligent()
	bad.ReformulateProb = 2
	if err := bad.Validate(); err == nil {
		t.Error("ReformulateProb > 1 accepted")
	}
}

func TestFinalRankingExported(t *testing.T) {
	arch, sys := fixture(t, core.Config{UseImplicit: true})
	sim, err := New(arch, sys, ui.Desktop(), Casual(), 9)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := sim.RunSession("fr", nil, arch.Truth.SearchTopics[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.FinalRanking) == 0 {
		t.Fatal("no final ranking recorded")
	}
	seen := map[string]bool{}
	for _, id := range sr.FinalRanking {
		if seen[id] {
			t.Fatalf("duplicate id %s in final ranking", id)
		}
		seen[id] = true
	}
}

func TestStudyRunExport(t *testing.T) {
	arch, sys := fixture(t, core.Config{UseImplicit: true})
	study, err := RunStudy(arch, sys, ui.Desktop(), MakeUsers(2), arch.Truth.SearchTopics[:2], 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	run := study.ToRun("test-system")
	if run.Tag != "test-system" {
		t.Errorf("tag = %q", run.Tag)
	}
	if len(run.Rankings) != len(study.Sessions) {
		t.Errorf("run covers %d sessions of %d", len(run.Rankings), len(study.Sessions))
	}
	qs := study.ToQrels(arch.Truth.Qrels)
	perQ, mean, skipped := evalRun(run, qs)
	if len(skipped) != 0 {
		t.Errorf("skipped queries: %v", skipped)
	}
	if len(perQ) != len(study.Sessions) || mean.AP <= 0 {
		t.Errorf("run evaluation broken: %d queries, MAP %v", len(perQ), mean.AP)
	}
}

func TestCloneProfileNil(t *testing.T) {
	if cloneProfile(nil) != nil {
		t.Error("clone of nil should be nil")
	}
	p := profile.New("x")
	c := cloneProfile(p)
	if c == p || c.UserID != "x" {
		t.Error("clone broken")
	}
}

func BenchmarkRunSession(b *testing.B) {
	arch, sys := fixture(b, core.Config{UseImplicit: true})
	topic := arch.Truth.SearchTopics[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := New(arch, sys, ui.Desktop(), Casual(), int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.RunSession("b", nil, topic, 3); err != nil {
			b.Fatal(err)
		}
	}
}
