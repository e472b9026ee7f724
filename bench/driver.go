package main

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/ilog"
)

// The live driver: numClients closed-loop simulated users in this one
// process, one keep-alive connection each. A closed loop is the honest
// model here: the paper's simulated users wait for their page before
// they act. It also means a slow system receives less load, so a stall
// shows as lower iter_per_s rather than as queueing delay, and p99
// understates an outage (see README, known limits). The open-loop
// capacity sweep is ivrload's job, not this benchmark's.
const numClients = 2

// sdkBackend drives a server through the typed SDK, which is itself a
// line in the latency budget.
type sdkBackend struct {
	c  *client.Client
	tr *http.Transport
}

// newSDKBackend builds a client that owns exactly one connection.
func newSDKBackend(baseURL string) (*sdkBackend, error) {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		IdleConnTimeout:     time.Minute,
	}
	c, err := client.New(baseURL, client.WithHTTPClient(&http.Client{Transport: tr, Timeout: 15 * time.Second}))
	if err != nil {
		return nil, err
	}
	return &sdkBackend{c: c, tr: tr}, nil
}

// close drops the backend's connection.
func (b *sdkBackend) close() { b.tr.CloseIdleConnections() }

func (b *sdkBackend) create(ctx context.Context) (string, error) {
	return b.c.CreateSession(ctx, client.CreateSessionRequest{UserID: "bench"})
}

func (b *sdkBackend) search(ctx context.Context, id, query string, offset int) (page, error) {
	sp, err := b.c.Search(ctx, client.SearchRequest{SessionID: id, Query: query, Offset: offset})
	if err != nil {
		return page{}, err
	}
	p := page{Step: sp.Step, Candidates: sp.Candidates, Total: sp.Total, Partial: sp.Partial,
		Hits: make([]pageHit, len(sp.Hits))}
	for i, h := range sp.Hits {
		p.Hits[i] = pageHit{ID: h.ShotID, Score: h.Score}
	}
	return p, nil
}

func (b *sdkBackend) events(ctx context.Context, id string, events []ilog.Event) error {
	_, err := b.c.SendEvents(ctx, id, events)
	return err
}

func (b *sdkBackend) state(ctx context.Context, id string) (sessionState, error) {
	st, err := b.c.Session(ctx, id)
	if err != nil {
		return sessionState{}, err
	}
	return sessionState{Step: st.Step, Evidence: st.Evidence, Seen: st.SeenShots}, nil
}

func (b *sdkBackend) delete(ctx context.Context, id string) error {
	return b.c.DeleteSession(ctx, id)
}

// sample is one completed SDK call or iteration, stamped with its end
// time (ns since the run's origin) so it can be binned into phases and
// slices after the fact.
type sample struct {
	kind opKind // numOpKinds marks a whole iteration
	end  int64
	dur  int64
}

// span is one node of the harness's own trace: a root per scripted
// iteration, a child per SDK call. Spans are kept in memory and
// written out when the run ends. Spans inside the program
// (internal/trace) are deliberately not used: that is a later issue.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"` // 0 = root
	Name    string `json:"name"`
	Start   int64  `json:"start"` // ns since run origin
	End     int64  `json:"end"`
	Ordinal uint64 `json:"ordinal"`
}

// clientLog is one client goroutine's private record of the run.
type clientLog struct {
	id      int
	origin  time.Time
	spansOn *atomic.Bool
	samples []sample
	records []sessionRecord
	spans   []span
	// current iteration, for span parenting
	ordinal  uint64
	rootID   uint64
	tracing  bool
	nextSpan uint64
}

func (l *clientLog) iterStart(ordinal uint64) {
	l.ordinal = ordinal
	// Decide once per iteration so a root always has its children.
	l.tracing = l.spansOn.Load()
	if l.tracing {
		l.nextSpan++
		l.rootID = uint64(l.id+1)<<40 | l.nextSpan
	}
}

func (l *clientLog) op(kind opKind, start time.Time, d time.Duration) {
	begin := start.Sub(l.origin).Nanoseconds()
	l.samples = append(l.samples, sample{kind: kind, end: begin + d.Nanoseconds(), dur: d.Nanoseconds()})
	if l.tracing {
		l.nextSpan++
		l.spans = append(l.spans, span{
			ID: uint64(l.id+1)<<40 | l.nextSpan, Parent: l.rootID, Name: "client." + kind.String(),
			Start: begin, End: begin + d.Nanoseconds(), Ordinal: l.ordinal,
		})
	}
}

func (l *clientLog) iterEnd(start time.Time, d time.Duration) {
	begin := start.Sub(l.origin).Nanoseconds()
	l.samples = append(l.samples, sample{kind: numOpKinds, end: begin + d.Nanoseconds(), dur: d.Nanoseconds()})
	if l.tracing {
		l.spans = append(l.spans, span{
			ID: l.rootID, Name: "iteration", Start: begin, End: begin + d.Nanoseconds(), Ordinal: l.ordinal,
		})
	}
}

// phase is one stretch of a run: how long, how many of the clients are
// active, whether spans are recorded.
type phase struct {
	dur     time.Duration
	clients int
	spans   bool
	// measured phases are bracketed by the counter scrapes.
	measured bool
	// filled in by drive: the phase's bounds in ns since origin.
	from, to int64
}

// driveResult is everything a run observed from the outside.
type driveResult struct {
	phases  []phase
	logs    []*clientLog
	before  scrape
	after   scrape
	rssMB   float64
	records []sessionRecord // all clients, unsorted
}

// drive runs the phases back to back against tp. Clients take session
// ordinals from one atomic counter; a client finishes the session it
// is in when the last phase ends, so every taken ordinal completes and
// leaves no session behind on the server.
func drive(ctx context.Context, tp *topology, sc *script, topics []topic, phases []phase) (*driveResult, error) {
	res := &driveResult{phases: phases}
	origin := time.Now()
	var (
		counter atomic.Uint64
		active  atomic.Int32
		spansOn atomic.Bool
		stop    atomic.Bool
		wg      sync.WaitGroup
	)
	for c := 0; c < numClients; c++ {
		b, err := newSDKBackend(tp.apiURL)
		if err != nil {
			return nil, err
		}
		defer b.close()
		l := &clientLog{id: c, origin: origin, spansOn: &spansOn}
		res.logs = append(res.logs, l)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() {
				if int32(c) >= active.Load() {
					time.Sleep(time.Millisecond)
					continue
				}
				plan := sc.plan(counter.Add(1) - 1)
				l.records = append(l.records, runSession(ctx, b, plan, topics[plan.Topic], l, nil))
			}
		}(c)
	}
	var err error
	scraped := false
	for i := range phases {
		ph := &phases[i]
		if ph.measured && !scraped {
			if res.before, err = scrapeTopology(tp); err != nil {
				break
			}
			scraped = true
		}
		spansOn.Store(ph.spans)
		active.Store(int32(ph.clients))
		ph.from = time.Since(origin).Nanoseconds()
		select {
		case <-time.After(ph.dur):
		case <-ctx.Done():
			err = ctx.Err()
		}
		ph.to = time.Since(origin).Nanoseconds()
		if err != nil {
			break
		}
	}
	if err == nil {
		res.after, err = scrapeTopology(tp)
	}
	if err == nil {
		res.rssMB, err = tp.peakRSSMB()
	}
	stop.Store(true)
	wg.Wait()
	for _, l := range res.logs {
		res.records = append(res.records, l.records...)
	}
	return res, err
}
