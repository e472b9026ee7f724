package core

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/feedback"
	"repro/internal/ilog"
	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/retrieval"
	"repro/internal/search"
	"repro/internal/trace"
)

// Session is one user's search session against a System: it holds the
// user's static profile, the implicit evidence observed so far, and
// the iteration clock that drives ostensive decay. Sessions are not
// safe for concurrent use; create one per goroutine.
type Session struct {
	sys  *System
	id   string
	user *profile.Profile
	acc  *feedback.Accumulator
	// step counts query iterations; evidence is stamped with the step
	// it arrived in.
	step int
	// seen records every shot returned to the user, for exploration
	// metrics and optional filtering, by global DocID: its size follows
	// what the user saw, not the corpus. seenOther holds seen shot IDs
	// the shot table does not know (a restored session whose shots
	// this system's collection lacks), so they survive re-encoding;
	// nil until needed.
	seen      map[index.DocID]struct{}
	seenOther map[string]struct{}
	// lastQuery remembers the most recent query text.
	lastQuery string
}

// NewSession starts a session. A nil user gets a fresh neutral
// profile (profile re-ranking then has no effect until drift occurs).
func (s *System) NewSession(id string, user *profile.Profile) *Session {
	if user == nil {
		user = profile.New(id)
	}
	return &Session{
		sys:  s,
		id:   id,
		user: user,
		acc:  feedback.NewAccumulator(s.config.Scheme),
		seen: make(map[index.DocID]struct{}),
	}
}

// ID returns the session identifier.
func (sess *Session) ID() string { return sess.id }

// User returns the session's profile (live; drift mutates it).
func (sess *Session) User() *profile.Profile { return sess.user }

// Step returns the current query-iteration count.
func (sess *Session) Step() int { return sess.step }

// EvidenceCount reports how much implicit evidence has been observed.
func (sess *Session) EvidenceCount() int { return sess.acc.Len() }

// SeenShots returns how many distinct shots have been shown.
func (sess *Session) SeenShots() int { return len(sess.seen) + len(sess.seenOther) }

// HasSeen reports whether a shot was already returned in this session.
func (sess *Session) HasSeen(shotID string) bool {
	if d, ok := sess.sys.shotDoc(shotID); ok {
		_, seen := sess.seen[d]
		return seen
	}
	_, seen := sess.seenOther[shotID]
	return seen
}

// markSeen records one shown shot: by DocID when the shot table knows
// it, by ID otherwise.
func (sess *Session) markSeen(d index.DocID, known bool, id string) {
	if known {
		sess.seen[d] = struct{}{}
		return
	}
	if sess.seenOther == nil {
		sess.seenOther = make(map[string]struct{})
	}
	sess.seenOther[id] = struct{}{}
}

// Query runs one adapted retrieval iteration:
//
//  1. parse the text query;
//  2. if implicit adaptation is on, expand it with terms Rocchio-mined
//     from positively-weighted shots (mass under the configured
//     weighting scheme, ostensive decay applied at the current step);
//  3. rank with the configured scorer;
//  4. if profile adaptation is on, rescore by the profile's category
//     boost, scaled to ProfileAlpha of the top retrieval score.
//
// Each call advances the session step.
func (sess *Session) Query(queryText string) (search.Results, error) {
	return sess.QueryFilteredContext(context.Background(), queryText, nil)
}

// QueryContext is Query with a caller context: cancellation reaches
// remote segment backends, and an active trace in ctx records the
// per-stage spans (expand, cache, prepare, segment, merge).
func (sess *Session) QueryContext(ctx context.Context, queryText string) (search.Results, error) {
	return sess.QueryFilteredContext(ctx, queryText, nil)
}

// QueryFiltered is Query with a metadata filter restricting the
// candidate shots (see System.CategoryFilter and friends).
//
// When the system carries a result cache, the retrieval (expansion +
// ranking, everything before the session-specific profile rescore) is
// served from it under the key (normalized query, evidence-state
// fingerprint, config). The evidence fingerprint is computed from the
// feedback accumulator's current relevance mass, so observing a new
// implicit event — or, under step-decaying schemes, merely advancing
// the iteration clock — changes the key and forces re-retrieval: the
// cache can never serve results that predate the session's evidence.
// Filtered queries bypass the cache (filters are opaque predicates).
func (sess *Session) QueryFiltered(queryText string, filter ShotFilter) (search.Results, error) {
	return sess.QueryFilteredContext(context.Background(), queryText, filter)
}

// QueryFilteredContext is QueryFiltered with a caller context (see
// QueryContext).
func (sess *Session) QueryFilteredContext(ctx context.Context, queryText string, filter ShotFilter) (search.Results, error) {
	sys := sess.sys
	q := sys.engine.ParseText(queryText)
	var mass map[string]float64
	if sys.config.UseImplicit {
		mass = sess.acc.Mass()
	}
	retrieve := func() (search.Results, error) {
		rq := q
		if sys.config.UseImplicit {
			// Confidence-scaled expansion: adaptation strength grows
			// with the accumulated positive evidence mass and saturates.
			_, exp := trace.StartSpan(ctx, "expand")
			var totalPos float64
			for _, m := range mass {
				if m > 0 {
					totalPos += m
				}
			}
			beta := sys.config.ExpandBeta
			if sat := sys.config.ExpandMassSaturation; sat > 0 && totalPos < sat {
				beta *= totalPos / sat
			}
			rq = sys.expander.Expand(rq, mass, sys.config.ExpandTerms, beta)
			if exp != nil {
				exp.SetAttr("terms", strconv.Itoa(len(rq.Terms)))
				exp.End()
			}
		}
		return sys.engine.SearchContext(ctx, rq, search.Options{
			K:      sys.config.K,
			Scorer: sys.config.Scorer,
			Filter: filter,
		})
	}
	var res search.Results
	var err error
	if sys.cache.Enabled() && filter == nil {
		key := retrieval.Key(retrieval.QueryKey(q), retrieval.EvidenceKey(mass), sys.cfgKey)
		cctx, csp := trace.StartSpan(ctx, "cache")
		ctx = cctx // nested expand/search spans belong under "cache"
		var hit bool
		res, hit, err = sys.cache.Do(key, retrieve)
		if csp != nil {
			csp.SetAttr("hit", strconv.FormatBool(hit))
			csp.End()
		}
	} else {
		res, err = retrieve()
	}
	if err != nil {
		return search.Results{}, err
	}
	// res.Hits is this call's own copy (the cache hands out copies),
	// so the profile rescore works in place.
	if sys.config.UseProfile && len(res.Hits) > 0 {
		scale := sys.config.ProfileAlpha * res.Hits[0].Score
		search.Rescore(res.Hits, scale, func(h search.Hit) float64 {
			if e := sys.shot(h.Doc); e != nil && e.hasCat {
				return sess.user.Boost(e.cat)
			}
			return 0
		})
	}
	for _, h := range res.Hits {
		sess.markSeen(h.Doc, sys.shot(h.Doc) != nil, h.ID)
	}
	sess.lastQuery = queryText
	sess.step++
	sess.acc.AdvanceStep()
	return res, nil
}

// LastQuery returns the most recent query text ("" before any query).
func (sess *Session) LastQuery() string { return sess.lastQuery }

// Observe feeds one interaction event into the session: the event
// becomes weighted implicit evidence, and (when ProfileLearnRate > 0)
// positive evidence drifts the profile toward the shot's category.
// Events without a shot target (queries, browses without target) are
// recorded as no-ops.
func (sess *Session) Observe(e ilog.Event) error {
	if err := e.Validate(); err != nil {
		return fmt.Errorf("core: observe: %w", err)
	}
	// Stamp the event with the session clock if the caller didn't.
	if e.Step == 0 && sess.step > 0 {
		e.Step = sess.step - 1
	}
	ev, ok := feedback.FromEvent(e, sess.sys.shotSeconds(e.ShotID))
	if !ok {
		return nil
	}
	if err := sess.acc.Observe(ev); err != nil {
		return err
	}
	lr := sess.sys.config.ProfileLearnRate
	if lr > 0 {
		if cat, ok := sess.sys.shotCategory(e.ShotID); ok {
			w := sess.acc.Scheme().Weight(ev, sess.acc.Step())
			switch {
			case w > 0:
				sess.user.Update(cat, 1, lr*minf(w, 1))
			case w < 0:
				sess.user.Update(cat, 0, lr*minf(-w, 1))
			}
		}
	}
	return nil
}

// ObserveAll feeds a batch of events, stopping at the first error.
func (sess *Session) ObserveAll(events []ilog.Event) error {
	for i, e := range events {
		if err := sess.Observe(e); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// Mass exposes the current per-shot implicit relevance mass (a copy).
func (sess *Session) Mass() map[string]float64 { return sess.acc.Mass() }

// EvidenceFingerprint returns the evidence component of the session's
// result-cache key, derived from the current implicit relevance mass.
// A changed fingerprint guarantees the next query re-retrieves instead
// of reusing a cached ranking. Always 0 when implicit adaptation is
// off (the ranking then does not depend on evidence).
func (sess *Session) EvidenceFingerprint() uint64 {
	if !sess.sys.config.UseImplicit {
		return 0
	}
	return retrieval.EvidenceKey(sess.acc.Mass())
}

// Reset clears evidence, the seen set and the step clock, keeping the
// profile (a new task for the same user).
func (sess *Session) Reset() {
	sess.acc.Reset()
	sess.seen = make(map[index.DocID]struct{})
	sess.seenOther = nil
	sess.step = 0
	sess.lastQuery = ""
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
