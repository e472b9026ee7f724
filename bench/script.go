package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/ilog"
)

// The request scripts. A script is a pure function (kind, seed,
// session ordinal) -> sessionPlan: which topic the simulated user
// searches, which pages they fetch, and the random numbers that later
// pick which returned shots they click and for how long they watch.
// The plan holds random *numbers*, not shot IDs, because which shots
// can be clicked depends on the page the system returns; the live
// driver and the in-process oracle resolve the same numbers against
// their own pages with chooseShots, so a wrong ranking surfaces as a
// diverging page hash instead of being masked by a pre-baked click
// list.
//
// The randomisation is required, not decoration: evidence mass under
// the default graded scheme depends only on *which* shots were acted
// on, so identical clicks produce identical evidence fingerprints and
// would turn every "cold" adapted search into a result-cache hit once
// each topic had been seen.

type opKind uint8

const (
	opCreate opKind = iota
	opSearch
	opEvents
	opGetSession
	opDelete
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"create", "search", "events", "get_session", "delete"}[k]
}

// Script kinds. tiers.adapt runs scriptAdapt, byte for byte.
const (
	scriptWarm  = "warm"
	scriptAdapt = "adapt"
	scriptWrite = "write"
)

// pageSize is the server's default page (webapi defaultLimit); the
// scripts never send an explicit limit, like a stock front-end.
const pageSize = 20

// eventPlan is one interaction of a batch. Slot indexes the shots
// chosen for the batch (see chooseShots); -1 marks an event with no
// shot target (paging through results), which the system records but
// which carries no evidence.
type eventPlan struct {
	Action  ilog.Action `json:"action"`
	Slot    int         `json:"slot"`
	Seconds float64     `json:"seconds,omitempty"`
	Value   int         `json:"value,omitempty"`
}

// opPlan is one SDK call.
type opPlan struct {
	Kind   opKind      `json:"kind"`
	Offset int         `json:"offset,omitempty"`
	Picks  []uint32    `json:"picks,omitempty"`
	Events []eventPlan `json:"events,omitempty"`
}

// iterPlan is one scripted iteration: one search or one event batch
// plus its follow-up calls (session create/delete/inspect ride on the
// first and last iterations). iter_per_s counts these.
type iterPlan struct {
	Ops []opPlan `json:"ops"`
}

type sessionPlan struct {
	Ordinal uint64     `json:"ordinal"`
	Topic   int        `json:"topic"` // index into the archive's search topics
	Iters   []iterPlan `json:"iters"`
}

// rng is splitmix64: tiny, seedable per session, and owned by the
// benchmark so no library change can move the scripts.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) u32() uint32 { return uint32(r.next() >> 32) }

// seconds draws a dwell time in [lo, hi), rounded to milliseconds so
// the JSON event body and the script bytes stay short and exact.
func (r *rng) seconds(lo, hi float64) float64 {
	u := float64(r.next()>>11) / (1 << 53)
	return math.Round((lo+u*(hi-lo))*1000) / 1000
}

// script generates session plans for one kind and seed over numTopics
// search topics.
type script struct {
	kind string
	seed int64
	perm []int
}

func newScript(kind string, seed int64, numTopics int) (*script, error) {
	switch kind {
	case scriptWarm, scriptAdapt, scriptWrite:
	default:
		return nil, fmt.Errorf("unknown script kind %q", kind)
	}
	if numTopics <= 0 {
		return nil, fmt.Errorf("script needs at least one topic")
	}
	perm := make([]int, numTopics)
	for i := range perm {
		perm[i] = i
	}
	r := rng{s: uint64(seed)}
	for i := numTopics - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return &script{kind: kind, seed: seed, perm: perm}, nil
}

// Shape constants of the three scripts (ISSUE 11 fixes them; later
// issues cite the workloads by name, so these do not change).
const (
	adaptIterations = 4 // search -> click+play batch, four times
	adaptShots      = 3 // shots acted on per batch: 3 x (click, play) = 6 events
	writeBatches    = 6 // event batches per session.write session
	writeShots      = 2 // shots acted on per 8-event batch
)

// plan builds the deterministic plan of one session.
func (s *script) plan(ordinal uint64) sessionPlan {
	r := rng{s: uint64(s.seed)*0x9e3779b97f4a7c15 + ordinal + 1}
	r.next()
	p := sessionPlan{Ordinal: ordinal, Topic: s.perm[ordinal%uint64(len(s.perm))]}
	picks := func(n int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = r.u32()
		}
		return out
	}
	switch s.kind {
	case scriptWarm:
		// create -> search -> page through offsets 20/40/60 -> re-issue.
		// The one batch reports the paging as browse events without a
		// shot target: real front-ends log them, they carry no evidence
		// (so every search stays a result-cache hit), and they give this
		// workload an events latency through the same webapi/SDK layers.
		p.Iters = []iterPlan{
			{Ops: []opPlan{{Kind: opCreate}, {Kind: opSearch}}},
			{Ops: []opPlan{{Kind: opSearch, Offset: pageSize}}},
			{Ops: []opPlan{{Kind: opSearch, Offset: 2 * pageSize}}},
			{Ops: []opPlan{{Kind: opSearch, Offset: 3 * pageSize}, {Kind: opEvents, Events: []eventPlan{
				{Action: ilog.ActionBrowse, Slot: -1},
				{Action: ilog.ActionBrowse, Slot: -1},
				{Action: ilog.ActionBrowse, Slot: -1},
			}}}},
			{Ops: []opPlan{{Kind: opSearch}, {Kind: opDelete}}},
		}
	case scriptAdapt:
		for i := 0; i < adaptIterations; i++ {
			var it iterPlan
			if i == 0 {
				it.Ops = append(it.Ops, opPlan{Kind: opCreate})
			}
			batch := opPlan{Kind: opEvents, Picks: picks(adaptShots)}
			for slot := 0; slot < adaptShots; slot++ {
				batch.Events = append(batch.Events,
					eventPlan{Action: ilog.ActionClickKeyframe, Slot: slot},
					eventPlan{Action: ilog.ActionPlay, Slot: slot, Seconds: r.seconds(2, 30)})
			}
			it.Ops = append(it.Ops, opPlan{Kind: opSearch}, batch)
			if i == adaptIterations-1 {
				it.Ops = append(it.Ops, opPlan{Kind: opDelete})
			}
			p.Iters = append(p.Iters, it)
		}
	case scriptWrite:
		p.Iters = append(p.Iters, iterPlan{Ops: []opPlan{{Kind: opCreate}, {Kind: opSearch}}})
		for b := 0; b < writeBatches; b++ {
			rating := 1
			if r.next()%5 == 0 {
				rating = -1
			}
			it := iterPlan{Ops: []opPlan{{Kind: opEvents, Picks: picks(writeShots), Events: []eventPlan{
				{Action: ilog.ActionBrowse, Slot: -1},
				{Action: ilog.ActionClickKeyframe, Slot: 0},
				{Action: ilog.ActionPlay, Slot: 0, Seconds: r.seconds(2, 30)},
				{Action: ilog.ActionSlide, Slot: 0, Seconds: r.seconds(1, 10)},
				{Action: ilog.ActionHighlight, Slot: 1},
				{Action: ilog.ActionClickKeyframe, Slot: 1},
				{Action: ilog.ActionPlay, Slot: 1, Seconds: r.seconds(2, 30)},
				{Action: ilog.ActionRate, Slot: 0, Value: rating},
			}}}}
			if b == writeBatches-1 {
				it.Ops = append(it.Ops, opPlan{Kind: opGetSession}, opPlan{Kind: opDelete})
			}
			p.Iters = append(p.Iters, it)
		}
	}
	return p
}

// bytes serialises the first n plans: the form the determinism tests
// compare, and the proof that serve.adapt and tiers.adapt replay the
// same script.
func (s *script) bytes(n int) []byte {
	plans := make([]sessionPlan, n)
	for i := range plans {
		plans[i] = s.plan(uint64(i))
	}
	out, err := json.Marshal(plans)
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	return out
}

// searchesPerSession counts the searches of one plan of this kind.
func (s *script) searchesPerSession() int {
	n := 0
	for _, it := range s.plan(0).Iters {
		for _, op := range it.Ops {
			if op.Kind == opSearch {
				n++
			}
		}
	}
	return n
}

// pageHit is the part of a returned hit the scripts and the oracle
// comparison need, common to the SDK's and the engine's hit types.
type pageHit struct {
	ID    string
	Score float64
}

// chosenShot is one shot a simulated user acts on, with the rank it
// was shown at.
type chosenShot struct {
	ID   string
	Rank int
}

// chooseShots resolves a batch's random picks against the page the
// user is looking at: a seeded choice, without replacement, among the
// hits judged relevant to the topic; when the page holds fewer relevant
// hits than picks, among all of its hits (top hits as the fallback).
func chooseShots(hits []pageHit, offset int, relevant func(shotID string) bool, picks []uint32) []chosenShot {
	var cands []int
	for i, h := range hits {
		if relevant(h.ID) {
			cands = append(cands, i)
		}
	}
	if len(cands) < len(picks) {
		cands = cands[:0]
		for i := range hits {
			cands = append(cands, i)
		}
	}
	var out []chosenShot
	for _, pick := range picks {
		if len(cands) == 0 {
			break
		}
		j := int(pick % uint32(len(cands)))
		i := cands[j]
		cands = append(cands[:j], cands[j+1:]...)
		out = append(out, chosenShot{ID: hits[i].ID, Rank: offset + i})
	}
	return out
}

// eventEpoch anchors event timestamps: deterministic, so event bodies
// are identical from run to run.
var eventEpoch = time.Date(2008, 1, 1, 12, 0, 0, 0, time.UTC)

// buildEvents materialises a batch against the chosen shots. Events
// whose slot has no shot (a page shorter than the picks) are dropped.
func buildEvents(plan []eventPlan, chosen []chosenShot, sessionID string, ordinal uint64, topicID int) []ilog.Event {
	out := make([]ilog.Event, 0, len(plan))
	for i, ep := range plan {
		e := ilog.Event{
			Time:      eventEpoch.Add(time.Duration(ordinal)*time.Minute + time.Duration(i)*time.Second),
			SessionID: sessionID,
			UserID:    "bench",
			Interface: "desktop",
			TopicID:   topicID,
			Action:    ep.Action,
			Rank:      -1,
			Seconds:   ep.Seconds,
			Value:     ep.Value,
		}
		if ep.Slot >= 0 {
			if ep.Slot >= len(chosen) {
				continue
			}
			e.ShotID = chosen[ep.Slot].ID
			e.Rank = chosen[ep.Slot].Rank
		}
		out = append(out, e)
	}
	return out
}
