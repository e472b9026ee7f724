package simulation

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/ilog"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/ui"
)

// Simulator drives stereotype users through search sessions against an
// adaptive system, producing interaction logs and per-iteration
// metrics. One Simulator is bound to one archive + system + interface;
// it is not safe for concurrent use (it owns a PRNG).
type Simulator struct {
	arch  *synth.Archive
	sys   *core.System
	iface *ui.Interface
	pol   Policy
	clock time.Time
}

// New wires a simulator. seed fixes the behaviour stream.
func New(arch *synth.Archive, sys *core.System, iface *ui.Interface, st Stereotype, seed int64) (*Simulator, error) {
	if arch == nil || sys == nil || iface == nil {
		return nil, fmt.Errorf("simulation: archive, system and interface are required")
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	if err := iface.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{
		arch:  arch,
		sys:   sys,
		iface: iface,
		pol:   Policy{Stereotype: st, Iface: iface, Rand: rand.New(rand.NewSource(seed))},
		clock: studyStart(arch),
	}, nil
}

// studyStart is when a simulated study's clock starts: the study
// period follows the archive's recording period.
func studyStart(arch *synth.Archive) time.Time {
	return arch.Config.StartDate.AddDate(0, 1, 0)
}

// SessionResult is the outcome of one simulated session.
type SessionResult struct {
	SessionID string
	UserID    string
	TopicID   int
	Interface string
	// Events is the full interaction log of the session.
	Events []ilog.Event
	// PerIteration holds the metrics of the ranking shown at each
	// query iteration.
	PerIteration []eval.Metrics
	// Final is the last iteration's metrics.
	Final eval.Metrics
	// FinalRanking is the shot ranking of the last query iteration
	// (for TREC run-file export).
	FinalRanking []string
	// DistinctSeen counts distinct shots the user examined (the
	// exploration measure of the Vallet study).
	DistinctSeen int
	// EffortSpent is the interaction effort consumed (interface cost
	// units).
	EffortSpent float64
}

// newResult starts the result of one session, carrying the identity
// its events are stamped with.
func newResult(sessionID string, user *profile.Profile, topicID int, iface *ui.Interface) *SessionResult {
	userID := "anon"
	if user != nil {
		userID = user.UserID
	}
	return &SessionResult{SessionID: sessionID, UserID: userID, TopicID: topicID, Interface: iface.Name}
}

// Transport is the system side of the session loop: how the simulated
// user's queries reach the system under study and how their events
// come back to it. The in-process core.Session (local) and a remote
// server behind the SDK (internal/loadgen) implement it, so a served
// study runs the same loop as a simulated one.
type Transport interface {
	// Search runs one adapted query iteration. It returns the ranked
	// shot IDs and the durations, in seconds, of the first
	// min(depth, len(ids)) shots: the user never examines deeper.
	Search(query string, depth int) (ids []string, seconds []float64, err error)
	// Deliver hands the system one iteration's events, the query event
	// first.
	Deliver(events []ilog.Event) error
}

// Task is one search task of a session.
type Task struct {
	TopicID int
	// Query is the short form issued first; Verbose is the
	// reformulation target ("" never reformulates).
	Query, Verbose string
	// Iterations bounds the task's query cycles.
	Iterations int
	// Relevant is the user's relevance belief about a shot.
	Relevant func(shotID string) bool
	// Judgments, when non-nil, score every iteration's ranking into
	// the result's PerIteration and FinalRanking.
	Judgments eval.Judgments
}

// topicTask is the scored task of searching for topic, with relevance
// from the archive's ground truth.
func topicTask(arch *synth.Archive, topic *synth.SearchTopic, iterations int) Task {
	judg := judgments(arch.Truth.Qrels, topic.ID)
	return Task{
		TopicID:    topic.ID,
		Query:      topic.Query,
		Verbose:    topic.Verbose,
		Iterations: iterations,
		Relevant:   func(id string) bool { return judg[id] >= 1 },
		Judgments:  judg,
	}
}

// RunLoop is the simulated user's session loop over t. For each task
// and iteration it reformulates, charges the query cost, searches,
// scores the ranking, lets pol examine it up to the stereotype's
// patience and delivers the iteration's events, the query event
// first. The user brings one interface SessionBudget of attention per
// task; when it cannot pay for a query the task ends. Every event is
// stamped with res's identity and the simulated clock, which each
// event advances by 1–4 s drawn from pol's stream. res carries the
// session's identity in and its log and metrics out.
func RunLoop(t Transport, pol *Policy, clock *time.Time, res *SessionResult, tasks ...Task) error {
	total := pol.Iface.SessionBudget * float64(len(tasks))
	budget := total
	seen := map[string]bool{}
	step, topicID := 0, 0
	emit := func(e ilog.Event) {
		*clock = clock.Add(time.Second + time.Duration(pol.Rand.Intn(3000))*time.Millisecond)
		e.Time = *clock
		e.SessionID, e.UserID, e.Interface, e.TopicID = res.SessionID, res.UserID, res.Interface, topicID
		res.Events = append(res.Events, e)
	}
	for _, task := range tasks {
		topicID = task.TopicID
		query := task.Query
		for it := 0; it < task.Iterations; it++ {
			// Persistent users may reformulate to the verbose form
			// after an unsatisfying first pass.
			query = pol.Reformulate(it, query, task.Query, task.Verbose)
			qCost := pol.Iface.QueryCost(len(query))
			if budget < qCost {
				break
			}
			budget -= qCost
			first := len(res.Events)
			emit(ilog.Event{Action: ilog.ActionQuery, Query: query, Step: step + it, Rank: -1})
			ids, seconds, err := t.Search(query, pol.Stereotype.Patience)
			if err != nil {
				return err
			}
			if task.Judgments != nil {
				res.PerIteration = append(res.PerIteration, eval.Compute(ids, task.Judgments))
				res.FinalRanking = ids
			}
			views := make([]ResultView, len(seconds))
			for i, s := range seconds {
				views[i] = ResultView{ShotID: ids[i], Relevant: task.Relevant(ids[i]), Seconds: s}
			}
			pol.Examine(views, step+it, seen, &budget, emit)
			if err := t.Deliver(res.Events[first:]); err != nil {
				return err
			}
		}
		step += task.Iterations
	}
	if n := len(res.PerIteration); n > 0 {
		res.Final = res.PerIteration[n-1]
	}
	res.DistinctSeen = len(seen)
	res.EffortSpent = total - budget
	return nil
}

// local is the in-process Transport: one core.Session, with shot
// durations from the collection.
type local struct {
	sess *core.Session
	coll *collection.Collection
}

func (l local) Search(query string, depth int) ([]string, []float64, error) {
	res, err := l.sess.Query(query)
	if err != nil {
		return nil, nil, err
	}
	ids := res.IDs()
	// Resolve durations only for the examinable prefix: deeper lookups
	// would be wasted on the experiment hot path.
	seconds := make([]float64, min(depth, len(ids)))
	for i := range seconds {
		if shot := l.coll.Shot(collection.ShotID(ids[i])); shot != nil {
			seconds[i] = shot.Duration.Seconds()
		}
	}
	return ids, seconds, nil
}

// Deliver feeds the batch in order. Running no query between the
// events, it matches observing each one as it happens.
func (l local) Deliver(events []ilog.Event) error { return l.sess.ObserveAll(events) }

// RunSession simulates one user performing one search task for up to
// maxIterations query cycles or until the interface effort budget runs
// out. user may be nil (neutral profile).
func (s *Simulator) RunSession(sessionID string, user *profile.Profile,
	topic *synth.SearchTopic, maxIterations int) (*SessionResult, error) {

	if topic == nil {
		return nil, fmt.Errorf("simulation: nil topic")
	}
	if maxIterations <= 0 {
		return nil, fmt.Errorf("simulation: maxIterations must be positive")
	}
	res := newResult(sessionID, user, topic.ID, s.iface)
	t := local{s.sys.NewSession(sessionID, user), s.arch.Collection}
	if err := RunLoop(t, &s.pol, &s.clock, res, topicTask(s.arch, topic, maxIterations)); err != nil {
		return nil, err
	}
	return res, nil
}

// RunDriftSession simulates the mid-session interest change the
// ostensive model targets (Campbell & van Rijsbergen, cited in §1):
// the user works on topicA for itersA iterations, then their need
// shifts to topicB for itersB iterations *within the same session*, so
// stale topicA evidence pollutes adaptation unless it is discounted.
// The user never reformulates and has two tasks' worth of attention.
// Returned metrics cover only the topicB phase, judged against topicB.
func (s *Simulator) RunDriftSession(sessionID string, user *profile.Profile,
	topicA, topicB *synth.SearchTopic, itersA, itersB int) (*SessionResult, error) {

	if topicA == nil || topicB == nil {
		return nil, fmt.Errorf("simulation: nil topic")
	}
	if itersA <= 0 || itersB <= 0 {
		return nil, fmt.Errorf("simulation: drift session needs positive iteration counts")
	}
	res := newResult(sessionID, user, topicB.ID, s.iface)
	t := local{s.sys.NewSession(sessionID, user), s.arch.Collection}
	a, b := topicTask(s.arch, topicA, itersA), topicTask(s.arch, topicB, itersB)
	a.Verbose, b.Verbose, a.Judgments = "", "", nil
	if err := RunLoop(t, &s.pol, &s.clock, res, a, b); err != nil {
		return nil, err
	}
	return res, nil
}
