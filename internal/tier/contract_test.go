package tier_test

// The cross-tier contract: every serving tier answers a malformed or
// spent deadline, a shed, a panic, and the correlation/trace headers
// the same way, byte for byte, because all three call the one chain
// (trace.HTTPMiddleware), the one gate (overload.Gate) and the one
// envelope writer (tier.WriteError). One table drives the same cases
// against the router, serve and segment handlers on a fake clock — no
// real sleeps.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/distrib/chaostest"
	"repro/internal/index"
	"repro/internal/overload"
	"repro/internal/router"
	"repro/internal/synth"
	"repro/internal/tier"
	"repro/internal/trace"
	"repro/internal/webapi"
)

// faultClock is the manual clock every tier under test runs on; armed,
// its next read panics — a fault injected inside each tier's gated
// handler, past the real route table.
type faultClock struct {
	*chaostest.FakeClock
	fault atomic.Bool
}

func (c *faultClock) Now() time.Time {
	if c.fault.Load() {
		panic("injected clock fault")
	}
	return c.FakeClock.Now()
}

// target is one tier's handler plus how to ask it for gated work.
type target struct {
	name    string // the tier as its gate names it
	handler http.Handler
	search  func() *http.Request
	gate    *overload.Gate // nil: the tier sheds nothing (router)
}

// do serves one request in-process, optionally with extra headers.
func (tg target) do(req *http.Request, headers ...string) *httptest.ResponseRecorder {
	for i := 0; i+1 < len(headers); i += 2 {
		req.Header.Set(headers[i], headers[i+1])
	}
	rec := httptest.NewRecorder()
	tg.handler.ServeHTTP(rec, req)
	return rec
}

// overloadFamilies scrapes the tier's Prometheus exposition for the
// gate's families.
func (tg target) overloadFamilies(t *testing.T) map[string]string {
	t.Helper()
	rec := tg.do(httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: scrape status %d", tg.name, rec.Code)
	}
	out := map[string]string{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "ivr_admission_") || strings.HasPrefix(line, "ivr_deadline_exceeded_total") {
			name, value, _ := strings.Cut(line, " ")
			out[name] = value
		}
	}
	return out
}

// newTargets builds the four surfaces over one tiny archive, every gate
// sized limit 1 / queue 1 and driven by clk.
func newTargets(t *testing.T, clk overload.Clock) []target {
	t.Helper()
	arch, err := synth.Generate(synth.TinyConfig(), 2008)
	if err != nil {
		t.Fatal(err)
	}
	adm := overload.AdmissionConfig{InitialLimit: 1, MinLimit: 1, MaxQueue: 1}

	sys, err := core.NewSystemFromCollection(arch.Collection, core.Config{UseImplicit: true})
	if err != nil {
		t.Fatal(err)
	}
	query := url.QueryEscape(arch.Truth.SearchTopics[0].Query)
	srv, err := webapi.NewServer(sys, webapi.WithAdmission(adm), webapi.WithOverloadClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	serve := target{name: trace.TierServe, handler: srv.Handler(), gate: srv.Gate()}
	var created struct {
		SessionID string `json:"session_id"`
	}
	rec := serve.do(httptest.NewRequest("POST", "/api/v1/sessions", strings.NewReader("{}")))
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil || created.SessionID == "" {
		t.Fatalf("create session: %d %s", rec.Code, rec.Body)
	}
	serve.search = func() *http.Request {
		return httptest.NewRequest("GET", "/api/v1/search?session="+created.SessionID+"&q="+query, nil)
	}

	sh, err := core.BuildShardedIndex(arch.Collection, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := distrib.NewSegmentServer(distrib.ServerConfig{Sharded: sh, Admission: adm, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	var term string
	sh.Segment(0).EachTerm(index.FieldText, func(tm string, _ int, _ int64) bool {
		term = tm
		return false
	})
	rpcBody := distrib.AppendSearchRequest(nil, &distrib.SearchRequest{
		Segment: 0,
		Field:   index.FieldText.String(),
		Terms:   []distrib.WireTerm{{Term: term, Weight: 1}},
		Stats:   []distrib.WireTermStats{{N: sh.NumDocs(), AvgDocLen: 7, TotalLen: 7 * int64(sh.NumDocs()), DF: 1, CF: 1, Weight: 1}},
		Scorer:  distrib.ScorerSpec{Name: "bm25"},
		K:       10,
	})

	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		tier.WriteJSON(w, http.StatusOK, struct{}{})
	}))
	t.Cleanup(upstream.Close)
	rt, err := router.New(router.Config{Replicas: []string{upstream.URL}, ProbeInterval: time.Hour, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })

	return []target{
		{name: trace.TierRouter, handler: rt, search: func() *http.Request {
			return httptest.NewRequest("GET", "/api/v1/search?session=s&q=x", nil)
		}},
		serve,
		{name: trace.TierSegment, handler: seg.Handler(), gate: seg.Gate(), search: func() *http.Request {
			req := httptest.NewRequest("POST", distrib.SearchPath, bytes.NewReader(rpcBody))
			req.Header.Set("Content-Type", distrib.ContentTypeBinary)
			return req
		}},
	}
}

// envelope renders the exact bytes tier.WriteError puts on the wire.
func envelope(code, message string) string {
	return fmt.Sprintf(`{"error":{"code":%q,"message":%q}}`+"\n", code, message)
}

// holdSlot claims the gate's only slot; the returned func frees it.
func holdSlot(t *testing.T, tg target) func() {
	t.Helper()
	ticket, err := tg.gate.Admission().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ticket.Release
}

// queueOne starts a gated request that parks in the admission queue
// and returns once it is parked; the channel yields its response.
func queueOne(t *testing.T, tg target, headers ...string) <-chan *httptest.ResponseRecorder {
	t.Helper()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- tg.do(tg.search(), headers...) }()
	for tg.gate.Admission().Stats().Queued < 1 {
		runtime.Gosched()
	}
	return done
}

var mintedID = regexp.MustCompile(`^r[0-9a-f]{16}$`)

func TestCrossTierContract(t *testing.T) {
	deadline := func(v string) []string { return []string{overload.DeadlineHeader, v} }

	cases := []struct {
		name string
		// gated marks cases that need an admission gate; the router,
		// which sheds nothing, sits them out.
		gated bool
		// run drives one tier and returns the response under test.
		run        func(t *testing.T, tg target, clk *faultClock) *httptest.ResponseRecorder
		wantStatus int
		wantBody   func(tierName string) string // nil: body not pinned (success)
		// wantMoved lists the gate families that must have moved, and to
		// what; every other scraped family must still read zero (the
		// limit gauge: its configured 1).
		wantMoved map[string]string
	}{
		{
			name: "malformed deadline",
			run: func(t *testing.T, tg target, _ *faultClock) *httptest.ResponseRecorder {
				var last *httptest.ResponseRecorder
				for _, v := range []string{"bogus", "+250", "2.5", "600001"} {
					rec := tg.do(tg.search(), deadline(v)...)
					if last != nil && (rec.Code != last.Code || rec.Body.String() != last.Body.String()) {
						t.Errorf("%s: deadline %q answered %d %q, unlike its siblings", tg.name, v, rec.Code, rec.Body)
					}
					last = rec
				}
				return last
			},
			wantStatus: http.StatusBadRequest,
			wantBody: func(string) string {
				return envelope(tier.CodeInvalid, "bad X-IVR-Deadline header: overload: malformed deadline header")
			},
		},
		{
			name: "spent on arrival",
			run: func(t *testing.T, tg target, _ *faultClock) *httptest.ResponseRecorder {
				tg.do(tg.search(), deadline("-40")...)
				return tg.do(tg.search(), deadline("0")...)
			},
			wantStatus: http.StatusGatewayTimeout,
			wantBody: func(string) string {
				return envelope(tier.CodeDeadline, "deadline budget spent before arrival")
			},
			wantMoved: map[string]string{"ivr_deadline_exceeded_total": "2"},
		},
		{
			name: "live budget",
			run: func(t *testing.T, tg target, _ *faultClock) *httptest.ResponseRecorder {
				return tg.do(tg.search(), deadline("5000")...)
			},
			wantStatus: http.StatusOK,
			wantMoved:  map[string]string{"ivr_admission_admitted_total": "1"},
		},
		{
			name:  "limit and full queue",
			gated: true,
			run: func(t *testing.T, tg target, _ *faultClock) *httptest.ResponseRecorder {
				release := holdSlot(t, tg)
				queued := queueOne(t, tg)
				shed := tg.do(tg.search())
				if ra := shed.Header().Get("Retry-After"); ra != "1" {
					t.Errorf("%s: shed Retry-After = %q, want 1", tg.name, ra)
				}
				// The slot frees: the parked request is admitted and served.
				release()
				if rec := <-queued; rec.Code != http.StatusOK {
					t.Errorf("%s: queued request answered %d after the slot freed, want 200", tg.name, rec.Code)
				}
				return shed
			},
			wantStatus: http.StatusTooManyRequests,
			wantBody: func(tierName string) string {
				return envelope(tier.CodeOverloaded, tierName+" tier at concurrency limit")
			},
			wantMoved: map[string]string{"ivr_admission_admitted_total": "2", "ivr_admission_shed_total": "1"},
		},
		{
			name:  "budget spent while queued",
			gated: true,
			run: func(t *testing.T, tg target, clk *faultClock) *httptest.ResponseRecorder {
				release := holdSlot(t, tg)
				defer release()
				// The budget timer is armed before the request parks, so
				// advancing the clock past it is what un-parks it.
				queued := queueOne(t, tg, deadline("50")...)
				clk.Advance(50 * time.Millisecond)
				return <-queued
			},
			wantStatus: http.StatusGatewayTimeout,
			wantBody: func(string) string {
				return envelope(tier.CodeDeadline, "deadline budget spent in admission queue")
			},
			wantMoved: map[string]string{
				"ivr_admission_admitted_total": "1", "ivr_admission_aborted_total": "1",
				"ivr_deadline_exceeded_total": "1",
			},
		},
		{
			name: "handler panic",
			run: func(t *testing.T, tg target, clk *faultClock) *httptest.ResponseRecorder {
				clk.fault.Store(true)
				defer clk.fault.Store(false)
				return tg.do(tg.search(), deadline("5000")...)
			},
			wantStatus: http.StatusInternalServerError,
			wantBody:   func(string) string { return envelope(tier.CodeInternal, "internal error") },
		},
		{
			name: "request id and trace echo",
			run: func(t *testing.T, tg target, _ *faultClock) *httptest.ResponseRecorder {
				rec := tg.do(tg.search(), trace.RequestIDHeader, "caller-7", trace.Header, trace.RequestEcho)
				if got := rec.Header().Get(trace.RequestIDHeader); got != "caller-7" {
					t.Errorf("%s: X-Request-Id = %q, want the caller's", tg.name, got)
				}
				root, err := trace.DecodeSpan(rec.Header().Get(trace.Header))
				if err != nil {
					t.Fatalf("%s: X-IVR-Trace echo: %v", tg.name, err)
				}
				if root.Tier != tg.name {
					t.Errorf("%s: echoed root tier = %q", tg.name, root.Tier)
				}
				// Absent, an ID is minted; unasked, no tree is echoed.
				rec = tg.do(tg.search())
				if got := rec.Header().Get(trace.RequestIDHeader); !mintedID.MatchString(got) {
					t.Errorf("%s: minted X-Request-Id = %q", tg.name, got)
				}
				if got := rec.Header().Get(trace.Header); got != "" {
					t.Errorf("%s: unrequested X-IVR-Trace echo %q", tg.name, got)
				}
				return rec
			},
			wantStatus: http.StatusOK,
			wantMoved:  map[string]string{"ivr_admission_admitted_total": "2"},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &faultClock{FakeClock: chaostest.NewFakeClock()}
			for _, tg := range newTargets(t, clk) {
				if tg.gate == nil {
					if fams := tg.overloadFamilies(t); len(fams) != 1 {
						t.Errorf("%s: gate families %v, want ivr_deadline_exceeded_total alone", tg.name, fams)
					}
					if tc.gated {
						continue
					}
				}
				rec := tc.run(t, tg, clk)
				if rec.Code != tc.wantStatus {
					t.Errorf("%s: status %d, want %d (%s)", tg.name, rec.Code, tc.wantStatus, rec.Body)
				}
				if tc.wantBody != nil {
					if got, want := rec.Body.String(), tc.wantBody(tg.name); got != want {
						t.Errorf("%s: body %q, want %q", tg.name, got, want)
					}
					if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
						t.Errorf("%s: error Content-Type %q", tg.name, ct)
					}
				}
				for name, got := range tg.overloadFamilies(t) {
					want, moved := tc.wantMoved[name]
					switch {
					case moved:
					case name == "ivr_admission_limit":
						want = "1"
					default:
						want = "0"
					}
					if got != want {
						t.Errorf("%s: %s = %s after the case, want %s", tg.name, name, got, want)
					}
				}
			}
		})
	}
}
