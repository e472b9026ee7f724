package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/ilog"
)

// backend is the system as one simulated user sees it: five calls.
// The live driver implements it over the internal/client SDK against
// real processes; the oracle and the ladder rungs implement it
// in-process at successive layer boundaries. runSession drives any of
// them with the same plan, which is what makes their outputs and
// timings comparable.
type backend interface {
	create(ctx context.Context) (sessionID string, err error)
	search(ctx context.Context, sessionID, query string, offset int) (page, error)
	events(ctx context.Context, sessionID string, events []ilog.Event) error
	state(ctx context.Context, sessionID string) (sessionState, error)
	delete(ctx context.Context, sessionID string) error
}

// page is one returned result page.
type page struct {
	Step       int
	Candidates int
	Total      int
	Partial    bool
	Hits       []pageHit
}

// sessionState is what GET /sessions/{id} reports.
type sessionState struct {
	Step     int
	Evidence int
	Seen     int
}

// topic is one search topic of the archive: the query a user types and
// the relevance judgements that decide which shots they click.
type topic struct {
	ID       int
	Query    string
	Relevant func(shotID string) bool
}

// hash folds everything a user can observe of a page into 64 bits
// (FNV-1a): the step, the counts, and each hit's rank, shot ID and
// score bits. Pages are compared and digested through this, so the
// driver keeps 8 bytes per search instead of the page.
func (p page) hash(offset int) uint64 {
	h := fnvOffset
	h = fnvUint(h, uint64(p.Step))
	h = fnvUint(h, uint64(p.Candidates))
	h = fnvUint(h, uint64(p.Total))
	h = fnvUint(h, uint64(offset))
	for _, hit := range p.Hits {
		for i := 0; i < len(hit.ID); i++ {
			h = (h ^ uint64(hit.ID[i])) * fnvPrime
		}
		h = fnvUint(h, math.Float64bits(hit.Score))
	}
	return h
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// sessionRecord is what one executed session leaves behind for
// verification: a hash per search, in script order, and the inspected
// state if the script asked for it.
type sessionRecord struct {
	Ordinal  uint64
	Pages    []uint64
	State    sessionState
	HasState bool
	// OpsAttempted/OpsFailed count SDK calls. A call fails on any
	// error (transport, non-2xx, typed overload answers alike) and on a
	// partial page.
	OpsAttempted int
	OpsFailed    int
}

// opObserver receives every executed call; the driver turns these into
// latency samples and spans, the ladder into rung timings.
type opObserver interface {
	iterStart(ordinal uint64)
	op(kind opKind, start time.Time, d time.Duration)
	iterEnd(start time.Time, d time.Duration)
}

// timed wraps one backend call so a harness can put something around
// the timed interval (the ladder reads allocation counters there).
// nil runs the call bare.
type timed func(kind opKind, call func())

// runSession executes one plan against b. It never aborts early on a
// failed call: the remaining calls of the session still run (and fail
// in turn if the session is gone), so attempted counts stay comparable
// between runs.
func runSession(ctx context.Context, b backend, plan sessionPlan, tp topic, obs opObserver, wrap timed) sessionRecord {
	rec := sessionRecord{Ordinal: plan.Ordinal}
	var sid string
	var last page
	lastOffset := 0
	for _, it := range plan.Iters {
		if obs != nil {
			obs.iterStart(plan.Ordinal)
		}
		iterBegin := time.Now()
		for _, op := range it.Ops {
			var events []ilog.Event
			if op.Kind == opEvents {
				// Resolve clicks before the clock starts: choosing is the
				// simulated user's think time, not the system's latency.
				chosen := chooseShots(last.Hits, lastOffset, tp.Relevant, op.Picks)
				events = buildEvents(op.Events, chosen, sid, plan.Ordinal, tp.ID)
			}
			var err error
			call := func() {
				switch op.Kind {
				case opCreate:
					sid, err = b.create(ctx)
				case opSearch:
					var p page
					p, err = b.search(ctx, sid, tp.Query, op.Offset)
					if err == nil && p.Partial {
						err = fmt.Errorf("partial page")
					}
					if err == nil {
						last, lastOffset = p, op.Offset
						rec.Pages = append(rec.Pages, p.hash(op.Offset))
					} else {
						rec.Pages = append(rec.Pages, 0)
					}
				case opEvents:
					if len(events) == 0 {
						err = fmt.Errorf("empty event batch (page had no hits)")
						return
					}
					err = b.events(ctx, sid, events)
				case opGetSession:
					rec.State, err = b.state(ctx, sid)
					rec.HasState = err == nil
				case opDelete:
					err = b.delete(ctx, sid)
				}
			}
			start := time.Now()
			if wrap != nil {
				wrap(op.Kind, call)
			} else {
				call()
			}
			d := time.Since(start)
			rec.OpsAttempted++
			if err != nil {
				rec.OpsFailed++
			}
			if obs != nil {
				obs.op(op.Kind, start, d)
			}
		}
		if obs != nil {
			obs.iterEnd(iterBegin, time.Since(iterBegin))
		}
	}
	return rec
}

// digest folds the page hashes of the first records (by ordinal, which
// the caller has sorted and made contiguous from 0) with their ordinal
// and search index: the ranking_digest. It is a count, not a timing:
// it must equal the oracle's, be equal between serve.adapt and
// tiers.adapt, and repeat exactly across runs of one seed.
func digest(records []sessionRecord) uint64 {
	h := fnvOffset
	for _, r := range records {
		for i, ph := range r.Pages {
			h = fnvUint(h, r.Ordinal)
			h = fnvUint(h, uint64(i))
			h = fnvUint(h, ph)
		}
	}
	return h
}
