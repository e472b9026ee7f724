package simulation

import (
	"fmt"
	"math/rand"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/ilog"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/ui"
)

// StudyUser is one participant: a static profile plus a behaviour
// stereotype.
type StudyUser struct {
	Profile    *profile.Profile
	Stereotype Stereotype
}

// MakeUsers builds a deterministic participant population: user i
// prefers one category strongly and dislikes another (the declared,
// registration-time knowledge static profiles capture), with the
// built-in stereotypes assigned round-robin.
func MakeUsers(n int) []*StudyUser {
	stereos := Stereotypes()
	out := make([]*StudyUser, n)
	for i := 0; i < n; i++ {
		p := profile.New(fmt.Sprintf("u%03d", i))
		liked := collection.Category(i % collection.NumCategories)
		disliked := collection.Category((i + collection.NumCategories/2) % collection.NumCategories)
		p.SetInterest(liked, 0.9)
		p.SetInterest(disliked, 0.2)
		out[i] = &StudyUser{Profile: p, Stereotype: stereos[i%len(stereos)]}
	}
	return out
}

// StudyPair is one (participant, task) assignment in a study.
type StudyPair struct {
	User  *StudyUser
	Topic *synth.SearchTopic
}

// AllPairs crosses every user with every topic (the interest-agnostic
// design: tasks are assigned regardless of what the user cares about).
func AllPairs(users []*StudyUser, topics []*synth.SearchTopic) []StudyPair {
	out := make([]StudyPair, 0, len(users)*len(topics))
	for _, topic := range topics {
		for _, u := range users {
			out = append(out, StudyPair{User: u, Topic: topic})
		}
	}
	return out
}

// AlignedPairs assigns each topic to users whose declared interests
// include the topic's category — the paper's news-personalisation
// scenario, where people search the topics they care about. perTopic
// users are created for each topic (profiles liking its category at
// 0.9 and disliking a distant category), with stereotypes rotating.
func AlignedPairs(topics []*synth.SearchTopic, perTopic int) []StudyPair {
	stereos := Stereotypes()
	var out []StudyPair
	seq := 0
	for _, topic := range topics {
		for k := 0; k < perTopic; k++ {
			p := profile.New(fmt.Sprintf("au%03d", seq))
			p.SetInterest(topic.Category, 0.9)
			disliked := collection.Category((int(topic.Category) + collection.NumCategories/2) % collection.NumCategories)
			p.SetInterest(disliked, 0.2)
			out = append(out, StudyPair{
				User:  &StudyUser{Profile: p, Stereotype: stereos[seq%len(stereos)]},
				Topic: topic,
			})
			seq++
		}
	}
	return out
}

// StudyResult aggregates a whole simulated user study.
type StudyResult struct {
	Sessions []*SessionResult
	// Events concatenates every session's log in execution order.
	Events []ilog.Event
	// MeanFinal averages the final-iteration metrics over sessions.
	MeanFinal eval.Metrics
	// MeanFirst averages the first-iteration metrics (the un-adapted
	// ranking) over sessions.
	MeanFirst eval.Metrics
	// PerTopicAP maps topic ID -> mean final AP over that topic's
	// sessions (the per-query vector significance tests consume).
	PerTopicAP map[int]float64
	// MeanDistinctSeen is the mean exploration (distinct shots
	// examined per session).
	MeanDistinctSeen float64
}

// RunStudy simulates every (user, topic) pair for the given number of
// query iterations and aggregates. Seeds are derived per session so
// the study is reproducible and individual sessions are independent.
func RunStudy(arch *synth.Archive, sys *core.System, iface *ui.Interface,
	users []*StudyUser, topics []*synth.SearchTopic, iterations int, seed int64) (*StudyResult, error) {

	if len(users) == 0 || len(topics) == 0 {
		return nil, fmt.Errorf("simulation: study needs users and topics")
	}
	return RunStudyPairs(arch, sys, iface, AllPairs(users, topics), iterations, seed)
}

// RunStudyPairs simulates an explicit (user, topic) assignment list;
// RunStudy is the all-pairs convenience over it.
func RunStudyPairs(arch *synth.Archive, sys *core.System, iface *ui.Interface,
	pairs []StudyPair, iterations int, seed int64) (*StudyResult, error) {

	if err := ValidatePairs(pairs); err != nil {
		return nil, err
	}
	if arch == nil || sys == nil || iface == nil {
		return nil, fmt.Errorf("simulation: archive, system and interface are required")
	}
	if err := iface.Validate(); err != nil {
		return nil, err
	}
	if iterations <= 0 {
		return nil, fmt.Errorf("simulation: iterations must be positive")
	}
	sessions := make([]*SessionResult, len(pairs))
	for seq, pair := range pairs {
		sid := fmt.Sprintf("study-%s-t%02d-s%03d", iface.Name, pair.Topic.ID, seq)
		// Each session gets a fresh copy of the profile: sessions
		// must not contaminate each other through drift.
		t := local{sys.NewSession(sid, cloneProfile(pair.User.Profile)), arch.Collection}
		sr, err := RunPair(t, arch, iface, pair, seq, iterations, seed, sid)
		if err != nil {
			return nil, err
		}
		sessions[seq] = sr
	}
	return Aggregate(sessions), nil
}

// ValidatePairs checks a study design: at least one pair, each with a
// user, a topic and a valid stereotype.
func ValidatePairs(pairs []StudyPair) error {
	if len(pairs) == 0 {
		return fmt.Errorf("simulation: study needs at least one (user, topic) pair")
	}
	for i, pair := range pairs {
		if pair.User == nil || pair.Topic == nil {
			return fmt.Errorf("simulation: pair %d has nil user or topic", i)
		}
		if err := pair.User.Stereotype.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// RunPair runs pair seq of a validated study as session sessionID over
// t, for up to iterations query cycles: the one per-session derivation
// the in-process study and the remote one (internal/loadgen) share.
// Session seq draws its behaviour from seed+seq*7919, and its clock
// starts with the study period.
func RunPair(t Transport, arch *synth.Archive, iface *ui.Interface, pair StudyPair,
	seq, iterations int, seed int64, sessionID string) (*SessionResult, error) {

	pol := Policy{Stereotype: pair.User.Stereotype, Iface: iface, Rand: rand.New(rand.NewSource(seed + int64(seq)*7919))}
	clock := studyStart(arch)
	res := newResult(sessionID, pair.User.Profile, pair.Topic.ID, iface)
	if err := RunLoop(t, &pol, &clock, res, topicTask(arch, pair.Topic, iterations)); err != nil {
		return nil, err
	}
	return res, nil
}

// Aggregate summarises a study's sessions, given in pair order.
func Aggregate(sessions []*SessionResult) *StudyResult {
	res := &StudyResult{Sessions: sessions, PerTopicAP: make(map[int]float64)}
	perTopicN := make(map[int]int)
	var finals, firsts []eval.Metrics
	var seenSum float64
	for _, sr := range sessions {
		res.Events = append(res.Events, sr.Events...)
		finals = append(finals, sr.Final)
		if len(sr.PerIteration) > 0 {
			firsts = append(firsts, sr.PerIteration[0])
		}
		res.PerTopicAP[sr.TopicID] += sr.Final.AP
		perTopicN[sr.TopicID]++
		seenSum += float64(sr.DistinctSeen)
	}
	for tid, n := range perTopicN {
		res.PerTopicAP[tid] /= float64(n)
	}
	res.MeanFinal = eval.Mean(finals)
	res.MeanFirst = eval.Mean(firsts)
	if len(sessions) > 0 {
		res.MeanDistinctSeen = seenSum / float64(len(sessions))
	}
	return res
}

// cloneProfile deep-copies a profile via its JSON form.
func cloneProfile(p *profile.Profile) *profile.Profile {
	if p == nil {
		return nil
	}
	data, err := p.MarshalJSON()
	if err != nil {
		// A profile always marshals; reaching here is programmer error.
		panic(fmt.Sprintf("simulation: clone profile: %v", err))
	}
	var out profile.Profile
	if err := out.UnmarshalJSON(data); err != nil {
		panic(fmt.Sprintf("simulation: clone profile: %v", err))
	}
	return &out
}

// ToRun exports a study's final rankings as a TREC run: one query ID
// per session ("t<topic>-<session>"), so downstream tooling can score
// sessions individually. ToQrels builds the matching qrel set.
func (sr *StudyResult) ToRun(tag string) *eval.Run {
	run := eval.NewRun(tag)
	for _, s := range sr.Sessions {
		if len(s.FinalRanking) == 0 {
			continue
		}
		run.Add(sessionQueryID(s), s.FinalRanking)
	}
	return run
}

// ToQrels duplicates each topic's judgements under every session query
// ID of the study, matching ToRun's naming.
func (sr *StudyResult) ToQrels(qrels synth.Qrels) eval.QrelSet {
	qs := eval.QrelSet{}
	for _, s := range sr.Sessions {
		if len(s.FinalRanking) == 0 {
			continue
		}
		qs[sessionQueryID(s)] = judgments(qrels, s.TopicID)
	}
	return qs
}

// judgments converts a topic's qrels to eval form.
func judgments(qrels synth.Qrels, topicID int) eval.Judgments {
	j := eval.Judgments{}
	for shot, g := range qrels[topicID] {
		j[string(shot)] = g
	}
	return j
}

func sessionQueryID(s *SessionResult) string {
	return fmt.Sprintf("t%02d-%s", s.TopicID, s.SessionID)
}

// Replay feeds a recorded interaction log through a system: queries
// re-execute (now under the replaying system's adaptation), other
// events become implicit evidence, exactly as Vallet et al. replayed
// past-user logs. It returns the final metrics per replayed session,
// keyed in sorted session order.
func Replay(sys *core.System, events []ilog.Event, qrels synth.Qrels) ([]eval.Metrics, error) {
	keys, groups := ilog.BySession(events)
	var out []eval.Metrics
	for _, key := range keys {
		group := groups[key]
		sess := sys.NewSession("replay-"+key, nil)
		var last eval.Metrics
		ran := false
		judg := judgments(qrels, group[0].TopicID) // BySession groups are never empty
		for _, e := range group {
			if e.Action == ilog.ActionQuery {
				res, err := sess.Query(e.Query)
				if err != nil {
					return nil, fmt.Errorf("simulation: replay %s: %w", key, err)
				}
				last = eval.Compute(res.IDs(), judg)
				ran = true
				continue
			}
			if err := sess.Observe(e); err != nil {
				return nil, fmt.Errorf("simulation: replay %s: %w", key, err)
			}
		}
		if ran {
			out = append(out, last)
		}
	}
	return out, nil
}
