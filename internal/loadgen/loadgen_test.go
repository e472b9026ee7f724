package loadgen_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/ilog"
	"repro/internal/loadgen"
	"repro/internal/simulation"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/ui"
	"repro/internal/webapi"
)

// stackConfig is the adaptive system every test server runs.
var stackConfig = core.Config{UseImplicit: true, UseProfile: true}

// newStack builds a real server over a tiny archive plus an SDK
// client: loadgen's integration surface is the genuine HTTP stack.
func newStack(t *testing.T) (*client.Client, *synth.Archive, *webapi.Server) {
	t.Helper()
	arch, err := synth.Generate(synth.TinyConfig(), 31)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystemFromCollection(arch.Collection, stackConfig)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := webapi.NewServer(sys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, client.WithTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return c, arch, srv
}

// queriesFromArchive builds a query pool with ground truth from the
// archive's evaluation topics.
func queriesFromArchive(arch *synth.Archive) []loadgen.Query {
	var out []loadgen.Query
	for _, topic := range arch.Truth.SearchTopics {
		rel := map[string]bool{}
		for shot, g := range arch.Truth.Qrels[topic.ID] {
			rel[string(shot)] = g >= 1
		}
		out = append(out, loadgen.Query{
			Text: topic.Query, Verbose: topic.Verbose, TopicID: topic.ID, Relevant: rel,
		})
	}
	return out
}

// TestDriverMatchesServerCounters is the closed-loop scale test: 50
// concurrent virtual users drive a full simulated-session workload
// and every client-observed request total must equal the server's
// /api/v1/metrics counter for the corresponding route.
func TestDriverMatchesServerCounters(t *testing.T) {
	c, arch, _ := newStack(t)
	d, err := loadgen.New(loadgen.Config{
		Client:     c,
		Users:      50,
		Sessions:   120,
		Iterations: 2,
		PageLimit:  10,
		Seed:       7,
		Queries:    queriesFromArchive(arch),
		FetchShots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 120 || rep.SessionsFailed != 0 {
		t.Fatalf("sessions = %d ok / %d failed, want 120/0\n%s", rep.Sessions, rep.SessionsFailed, rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("client errors = %d\n%s", rep.Errors, rep)
	}
	if rep.Iterations != 240 {
		t.Errorf("iterations = %d, want 240", rep.Iterations)
	}
	if rep.Requests == 0 || rep.RequestsPerSec <= 0 {
		t.Errorf("empty report: %+v", rep)
	}

	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	routeFor := map[string]string{
		loadgen.EndpointCreateSession: "POST /api/v1/sessions",
		loadgen.EndpointSearch:        "GET /api/v1/search",
		loadgen.EndpointEvents:        "POST /api/v1/events",
		loadgen.EndpointShot:          "GET /api/v1/shots/{id}",
		loadgen.EndpointDeleteSession: "DELETE /api/v1/sessions/{id}",
	}
	for endpoint, route := range routeFor {
		clientN := rep.Endpoints[endpoint].Requests
		serverN := m.Routes[route].Count
		if clientN == 0 {
			t.Errorf("endpoint %s saw no traffic", endpoint)
		}
		if clientN != serverN {
			t.Errorf("%s: client total %d != server %s count %d", endpoint, clientN, route, serverN)
		}
		if lat := m.Routes[route].Latency; lat.Count != uint64(serverN) {
			t.Errorf("%s: server latency count %d != route count %d", route, lat.Count, serverN)
		}
	}
	if int64(m.Sessions.Created) != rep.Sessions {
		t.Errorf("server sessions created = %d, want %d", m.Sessions.Created, rep.Sessions)
	}
	if m.Sessions.Live != 0 {
		t.Errorf("server live sessions = %d after run, want 0 (all deleted)", m.Sessions.Live)
	}
	// Latency quantiles must be ordered on both sides.
	for name, e := range rep.Endpoints {
		l := e.Latency
		if l.P50MS > l.P95MS || l.P95MS > l.P99MS || l.P99MS > l.MaxMS*1.1 {
			t.Errorf("%s: quantiles out of order: %+v", name, l)
		}
	}
	// The report round-trips through JSON (the BENCH summary format).
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back loadgen.Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Requests != rep.Requests || len(back.Endpoints) != len(rep.Endpoints) {
		t.Errorf("JSON round-trip mismatch: %+v vs %+v", back, rep)
	}
}

// TestOpenLoopPacing runs the open-loop arrival process and checks
// the run honours the duration bound and paces arrivals.
func TestOpenLoopPacing(t *testing.T) {
	c, arch, _ := newStack(t)
	d, err := loadgen.New(loadgen.Config{
		Client:     c,
		Users:      8,
		Sessions:   10,
		Iterations: 1,
		Pacing:     loadgen.PacingOpen,
		Rate:       200,
		Duration:   10 * time.Second,
		PageLimit:  5,
		Seed:       11,
		Queries:    queriesFromArchive(arch),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	done := rep.Sessions + rep.SessionsFailed + rep.DroppedArrivals
	if done < 10 {
		t.Fatalf("open loop finished %d of 10 arrivals\n%s", done, rep)
	}
	// 10 arrivals at 200/s take >= ~45ms of pacing.
	if rep.ElapsedSeconds < 0.04 {
		t.Errorf("open loop too fast for the arrival rate: %.3fs", rep.ElapsedSeconds)
	}
}

// TestRunStudyRemote replays a small (user, topic) study over HTTP
// and checks it produces evaluated sessions like the in-process
// study.
func TestRunStudyRemote(t *testing.T) {
	c, arch, srv := newStack(t)
	users := simulation.MakeUsers(3)
	topics := arch.Truth.SearchTopics
	if len(topics) > 4 {
		topics = topics[:4]
	}
	pairs := simulation.AllPairs(users, topics)
	res, rep, err := loadgen.RunStudy(context.Background(), loadgen.StudyConfig{
		Client:     c,
		Workers:    6,
		Iterations: 2,
		Archive:    arch,
		Seed:       2008,
	}, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SessionsFailed != 0 {
		t.Fatalf("failed sessions: %d\n%s", rep.SessionsFailed, rep)
	}
	if len(res.Sessions) != len(pairs) {
		t.Fatalf("sessions = %d, want %d", len(res.Sessions), len(pairs))
	}
	if len(res.Events) == 0 {
		t.Error("study produced no events")
	}
	for i := range res.Events {
		if err := res.Events[i].Validate(); err != nil {
			t.Fatalf("event %d invalid (log would not save): %v", i, err)
		}
	}
	for _, sr := range res.Sessions {
		if len(sr.PerIteration) == 0 || len(sr.FinalRanking) == 0 {
			t.Fatalf("session %s has no evaluated iterations", sr.SessionID)
		}
	}
	if res.MeanFinal.AP < 0 || res.MeanFinal.AP > 1 {
		t.Errorf("mean final AP = %v", res.MeanFinal.AP)
	}
	if rep.Sessions != int64(len(pairs)) {
		t.Errorf("report sessions = %d, want %d", rep.Sessions, len(pairs))
	}
	// All sessions were deleted server-side.
	if live := srv.Manager().Stats().Live; live != 0 {
		t.Errorf("server live sessions after study = %d, want 0", live)
	}
}

// TestRemoteStudyMatchesInProcess pins the served study to the
// simulated one: the same archive, system configuration, pairs, seed
// and iteration count, run in process by simulation.RunStudyPairs and
// over HTTP by concurrent loadgen workers, must log the same events
// (every field but the server-assigned session ID, timestamps
// included) and score the same rankings.
func TestRemoteStudyMatchesInProcess(t *testing.T) {
	c, arch, _ := newStack(t)
	sys, err := core.NewSystemFromCollection(arch.Collection, stackConfig)
	if err != nil {
		t.Fatal(err)
	}
	pairs := simulation.AllPairs(simulation.MakeUsers(3), arch.Truth.SearchTopics[:3])
	const iterations, seed = 3, 2008
	local, err := simulation.RunStudyPairs(arch, sys, ui.Desktop(), pairs, iterations, seed)
	if err != nil {
		t.Fatal(err)
	}
	remote, rep, err := loadgen.RunStudy(context.Background(), loadgen.StudyConfig{
		Client: c, Workers: 4, Iterations: iterations, Archive: arch, Seed: seed,
	}, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SessionsFailed != 0 || rep.SessionsAborted != 0 {
		t.Fatalf("remote study: %d failed, %d aborted\n%s", rep.SessionsFailed, rep.SessionsAborted, rep)
	}
	if len(local.Sessions) != len(pairs) || len(local.Events) == 0 {
		t.Fatalf("in-process study: %d sessions, %d events", len(local.Sessions), len(local.Events))
	}
	if len(remote.Sessions) != len(local.Sessions) {
		t.Fatalf("sessions: %d remote, %d local", len(remote.Sessions), len(local.Sessions))
	}
	for i, l := range local.Sessions {
		r := remote.Sessions[i]
		if j := firstDivergence(l.Events, r.Events); j >= 0 {
			t.Errorf("pair %d (topic %d, %s): first diverging event %d of %d local / %d remote:\n local  %s\n remote %s",
				i, l.TopicID, l.UserID, j, len(l.Events), len(r.Events), eventAt(l.Events, j), eventAt(r.Events, j))
			continue
		}
		if !reflect.DeepEqual(l.PerIteration, r.PerIteration) {
			t.Errorf("pair %d: per-iteration metrics differ:\n local  %+v\n remote %+v", i, l.PerIteration, r.PerIteration)
		}
		if l.Final != r.Final || l.DistinctSeen != r.DistinctSeen || l.EffortSpent != r.EffortSpent {
			t.Errorf("pair %d: final %+v / seen %d / effort %v local, %+v / %d / %v remote",
				i, l.Final, l.DistinctSeen, l.EffortSpent, r.Final, r.DistinctSeen, r.EffortSpent)
		}
		if !reflect.DeepEqual(l.FinalRanking, r.FinalRanking) {
			t.Errorf("pair %d: final rankings differ", i)
		}
	}
	if local.MeanFirst != remote.MeanFirst || local.MeanFinal != remote.MeanFinal {
		t.Errorf("MAP first/final: %.6f/%.6f local, %.6f/%.6f remote",
			local.MeanFirst.AP, local.MeanFinal.AP, remote.MeanFirst.AP, remote.MeanFinal.AP)
	}
	if !reflect.DeepEqual(local.PerTopicAP, remote.PerTopicAP) || local.MeanDistinctSeen != remote.MeanDistinctSeen {
		t.Errorf("per-topic AP %v / mean seen %v local, %v / %v remote",
			local.PerTopicAP, local.MeanDistinctSeen, remote.PerTopicAP, remote.MeanDistinctSeen)
	}
}

// firstDivergence returns the index of the first event that differs
// in any field but SessionID, or -1 when the logs are identical.
func firstDivergence(a, b []ilog.Event) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) {
			return i
		}
		x, y := a[i], b[i]
		x.SessionID, y.SessionID = "", ""
		if !x.Time.Equal(y.Time) {
			return i
		}
		x.Time, y.Time = time.Time{}, time.Time{}
		if x != y {
			return i
		}
	}
	return -1
}

func eventAt(events []ilog.Event, i int) string {
	if i >= len(events) {
		return "(none)"
	}
	e := events[i]
	return fmt.Sprintf("%s step=%d rank=%d shot=%q seconds=%.3f value=%d t=%s",
		e.Action, e.Step, e.Rank, e.ShotID, e.Seconds, e.Value, e.Time.Format(time.RFC3339))
}

// TestStudyReproducible: same seed, same pairs -> identical event
// logs per pair, despite concurrent completion order.
func TestStudyReproducible(t *testing.T) {
	c, arch, _ := newStack(t)
	users := simulation.MakeUsers(2)
	topics := arch.Truth.SearchTopics[:2]
	pairs := simulation.AllPairs(users, topics)
	run := func() *simulation.StudyResult {
		res, rep, err := loadgen.RunStudy(context.Background(), loadgen.StudyConfig{
			Client: c, Workers: 4, Iterations: 2, Archive: arch, Seed: 99,
		}, pairs)
		if err != nil {
			t.Fatal(err)
		}
		if rep.SessionsFailed != 0 {
			t.Fatalf("failed sessions: %d", rep.SessionsFailed)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Sessions {
		ae, be := a.Sessions[i].Events, b.Sessions[i].Events
		if len(ae) != len(be) {
			t.Fatalf("pair %d: %d events vs %d", i, len(ae), len(be))
		}
		for j := range ae {
			if ae[j].Action != be[j].Action || ae[j].ShotID != be[j].ShotID || ae[j].Rank != be[j].Rank {
				t.Fatalf("pair %d event %d differs: %+v vs %+v", i, j, ae[j], be[j])
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	c, arch, _ := newStack(t)
	queries := queriesFromArchive(arch)
	cases := []loadgen.Config{
		{},                            // nil client
		{Client: c},                   // no queries
		{Client: c, Queries: queries}, // unbounded (no Sessions/Duration)
		{Client: c, Queries: queries, Sessions: 1, Pacing: loadgen.PacingOpen},               // open loop without rate
		{Client: c, Queries: queries, Sessions: 1, Pacing: "weird"},                          // unknown pacing
		{Client: c, Queries: queries, Sessions: 1, RelevanceRate: 2},                         // bad relevance rate
		{Client: c, Queries: queries, Sessions: 1, ThinkTime: -time.Second},                  // negative
		{Client: c, Queries: queries, Sessions: 1, Iface: &ui.Interface{}},                   // invalid iface
		{Client: c, Queries: queries, Sessions: 1, Stereotypes: []simulation.Stereotype{{}}}, // invalid stereotype
	}
	for i, cfg := range cases {
		if _, err := loadgen.New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := loadgen.New(loadgen.Config{Client: c, Queries: queries, Sessions: 1}); err != nil {
		t.Errorf("minimal valid config rejected: %v", err)
	}
}

// TestDurationExpiryAbortsCleanly: when the run deadline cuts
// sessions short, they count as aborted (not failed) and are still
// deleted server-side via the detached cleanup context.
func TestDurationExpiryAbortsCleanly(t *testing.T) {
	c, arch, srv := newStack(t)
	d, err := loadgen.New(loadgen.Config{
		Client:     c,
		Users:      4,
		Sessions:   0, // duration-bound
		Iterations: 100,
		ThinkTime:  40 * time.Millisecond,
		Duration:   250 * time.Millisecond,
		PageLimit:  5,
		Seed:       3,
		Queries:    queriesFromArchive(arch),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SessionsFailed != 0 {
		t.Fatalf("deadline expiry marked %d sessions failed (want aborted)\n%s", rep.SessionsFailed, rep)
	}
	if rep.SessionsAborted == 0 {
		t.Fatalf("no sessions aborted at the deadline; report:\n%s", rep)
	}
	if live := srv.Manager().Stats().Live; live != 0 {
		t.Errorf("aborted sessions leaked server-side: %d live", live)
	}
}

// TestDriverSpreadsOverClients pins the multi-endpoint mode ivrload's
// comma-separated -server uses: virtual users are split round-robin
// over the given clients, and every target serves a share of the load.
func TestDriverSpreadsOverClients(t *testing.T) {
	c1, arch, srv1 := newStack(t)
	c2, _, srv2 := newStack(t)
	d, err := loadgen.New(loadgen.Config{
		Clients:    []*client.Client{c1, c2},
		Users:      4,
		Sessions:   12,
		Iterations: 1,
		PageLimit:  5,
		Seed:       9,
		Queries:    queriesFromArchive(arch),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 12 || rep.SessionsFailed != 0 {
		t.Fatalf("sessions = %d ok / %d failed, want 12/0\n%s", rep.Sessions, rep.SessionsFailed, rep)
	}
	n1 := srv1.Manager().Stats().Created
	n2 := srv2.Manager().Stats().Created
	if n1 == 0 || n2 == 0 || n1+n2 != 12 {
		t.Fatalf("session split %d/%d, want both targets loaded summing to 12", n1, n2)
	}
}

// TestTraceSampling drives a run with TraceSample and checks every
// sampled search yielded a server-reported span tree with the serve
// tier's stages, correlated by request ID.
func TestTraceSampling(t *testing.T) {
	c, arch, _ := newStack(t)
	d, err := loadgen.New(loadgen.Config{
		Client:      c,
		Users:       4,
		Sessions:    8,
		Iterations:  2,
		PageLimit:   5,
		Seed:        11,
		Queries:     queriesFromArchive(arch),
		TraceSample: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SessionsFailed != 0 || rep.Errors != 0 {
		t.Fatalf("failed sessions/errors: %d/%d\n%s", rep.SessionsFailed, rep.Errors, rep)
	}
	// 8 sessions × 2 iterations = 16 searches; every 2nd is sampled.
	if want := rep.Iterations / 2; int64(len(rep.TraceSamples)) != want {
		t.Fatalf("trace samples = %d, want %d of %d searches", len(rep.TraceSamples), want, rep.Iterations)
	}
	for _, s := range rep.TraceSamples {
		if s.RequestID == "" {
			t.Errorf("sample %q missing request ID", s.Query)
		}
		if s.Root == nil {
			t.Fatalf("sample %q has no span tree", s.Query)
		}
		if s.Root.Tier != "serve" {
			t.Errorf("sample root tier = %q, want serve", s.Root.Tier)
		}
		names := map[string]bool{}
		var walk func(sp *trace.Span)
		walk = func(sp *trace.Span) {
			names[sp.Name] = true
			for _, ch := range sp.Children {
				walk(ch)
			}
		}
		walk(s.Root)
		if !names["session"] {
			t.Errorf("sample %q span tree lacks a session span: %v", s.Query, names)
		}
	}
}
