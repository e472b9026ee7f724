package distrib

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/search"
	"repro/internal/tier"
)

// TestConnectBackendDown: a dead address at connect time is a typed
// *BackendError, not a hang (the RPC timeout bounds it).
func TestConnectBackendDown(t *testing.T) {
	start := time.Now()
	_, err := Connect(context.Background(),
		[]string{"http://127.0.0.1:1"}, WithTimeout(500*time.Millisecond))
	if err == nil {
		t.Fatal("connect to dead backend succeeded")
	}
	var be *BackendError
	if !errors.As(err, &be) {
		t.Fatalf("error %v (%T) is not a *BackendError", err, err)
	}
	if be.Segment != -1 {
		t.Errorf("stats-phase error carries segment %d, want -1", be.Segment)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("connect took %v, not bounded by the RPC timeout", elapsed)
	}
}

// TestConnectTopologyValidation: incoherent topologies are rejected at
// connect time, before any query can return a silently partial or
// doubled ranking.
func TestConnectTopologyValidation(t *testing.T) {
	_, sh := buildCorpus(t, 5, 60, 4)
	startWith := func(hosted []int) string {
		t.Helper()
		srv, err := NewSegmentServer(ServerConfig{Sharded: sh, Hosted: hosted})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	ctx := context.Background()

	t.Run("missing segment", func(t *testing.T) {
		_, err := Connect(ctx, []string{startWith([]int{0, 1})})
		if err == nil || !contains(err, "hosted by no backend") {
			t.Fatalf("missing segments accepted: %v", err)
		}
	})
	t.Run("duplicate segment", func(t *testing.T) {
		_, err := Connect(ctx, []string{startWith([]int{0, 1, 2, 3}), startWith([]int{3})})
		if err == nil || !contains(err, "hosted by both") {
			t.Fatalf("doubled segment accepted: %v", err)
		}
	})
	t.Run("different collection", func(t *testing.T) {
		_, other := buildCorpus(t, 99, 60, 4)
		osrv, err := NewSegmentServer(ServerConfig{Sharded: other, Hosted: []int{2, 3}})
		if err != nil {
			t.Fatal(err)
		}
		ots := httptest.NewServer(osrv.Handler())
		t.Cleanup(ots.Close)
		_, err = Connect(ctx, []string{startWith([]int{0, 1}), ots.URL})
		if err == nil || !contains(err, "different collection") {
			t.Fatalf("mixed-corpus topology accepted: %v", err)
		}
	})
	t.Run("different source hash", func(t *testing.T) {
		// Same index content, but the servers claim different source
		// archives (metadata the merge tier serves locally could
		// diverge even when the indexed text agrees).
		a, err := NewSegmentServer(ServerConfig{Sharded: sh, Hosted: []int{0, 1}, SourceHash: 111})
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewSegmentServer(ServerConfig{Sharded: sh, Hosted: []int{2, 3}, SourceHash: 222})
		if err != nil {
			t.Fatal(err)
		}
		ats, bts := httptest.NewServer(a.Handler()), httptest.NewServer(b.Handler())
		t.Cleanup(ats.Close)
		t.Cleanup(bts.Close)
		_, err = Connect(ctx, []string{ats.URL, bts.URL})
		if err == nil || !contains(err, "different collection") {
			t.Fatalf("mixed source hashes accepted: %v", err)
		}
	})
	t.Run("different segment count", func(t *testing.T) {
		_, other := buildCorpus(t, 5, 60, 2)
		osrv, err := NewSegmentServer(ServerConfig{Sharded: other})
		if err != nil {
			t.Fatal(err)
		}
		ots := httptest.NewServer(osrv.Handler())
		t.Cleanup(ots.Close)
		_, err = Connect(ctx, []string{startWith([]int{0, 1, 2, 3}), ots.URL})
		if err == nil {
			t.Fatal("mixed segment counts accepted")
		}
	})
}

func contains(err error, substr string) bool {
	return err != nil && strings.Contains(err.Error(), substr)
}

// TestBackendDiesAfterConnect: a backend that goes down between
// queries surfaces as search.SegmentError wrapping *BackendError with
// the failed ordinal — never a partial ranking.
func TestBackendDiesAfterConnect(t *testing.T) {
	_, sh := buildCorpus(t, 7, 80, 4)
	aliveSrv, err := NewSegmentServer(ServerConfig{Sharded: sh, Hosted: []int{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	alive := httptest.NewServer(aliveSrv.Handler())
	t.Cleanup(alive.Close)
	dyingSrv, err := NewSegmentServer(ServerConfig{Sharded: sh, Hosted: []int{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	dying := httptest.NewServer(dyingSrv.Handler())

	cluster := connectCluster(t, []string{alive.URL, dying.URL}, WithTimeout(time.Second))
	eng := cluster.NewEngine(nil, 4)
	if _, err := eng.Search(eng.ParseText("goal vote"), search.Options{K: 10}); err != nil {
		t.Fatalf("healthy topology failed: %v", err)
	}

	dying.Close()
	_, err = eng.Search(eng.ParseText("goal vote"), search.Options{K: 10})
	if err == nil {
		t.Fatal("search over a dead backend returned a ranking")
	}
	var se *search.SegmentError
	if !errors.As(err, &se) {
		t.Fatalf("error %v (%T) is not a *search.SegmentError", err, err)
	}
	if se.Segment != 1 && se.Segment != 3 {
		t.Errorf("failed segment %d, want 1 or 3 (the dead backend's)", se.Segment)
	}
	var be *BackendError
	if !errors.As(err, &be) {
		t.Fatalf("segment error does not wrap *BackendError: %v", err)
	}
	if be.Addr != dying.URL {
		t.Errorf("blamed backend %s, want %s", be.Addr, dying.URL)
	}
	// Telemetry counted the fault against the dead backend.
	for _, s := range cluster.BackendSummaries() {
		if s.Addr == dying.URL && s.Errors == 0 {
			t.Error("dead backend's error counter stayed zero")
		}
	}
}

// slowSwitch wraps a segment server handler and stalls /rpc/v1/search
// while enabled.
type slowSwitch struct {
	inner http.Handler
	delay time.Duration
	on    atomic.Bool
}

func (s *slowSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.on.Load() && r.URL.Path == SearchPath {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(s.delay):
		}
	}
	s.inner.ServeHTTP(w, r)
}

// TestSlowBackend: a stalled backend hits the per-RPC deadline and
// surfaces as a typed timeout within bounded wall-clock time — the
// merge tier can never hang on one slow segment.
func TestSlowBackend(t *testing.T) {
	_, sh := buildCorpus(t, 11, 60, 2)
	srv, err := NewSegmentServer(ServerConfig{Sharded: sh})
	if err != nil {
		t.Fatal(err)
	}
	// Stall for 1.5s: far past the 200ms RPC deadline, but short
	// enough that httptest's Close (which waits for the in-flight
	// handler) stays quiet.
	slow := &slowSwitch{inner: srv.Handler(), delay: 1500 * time.Millisecond}
	ts := httptest.NewServer(slow)
	t.Cleanup(ts.Close)

	cluster := connectCluster(t, []string{ts.URL}, WithTimeout(200*time.Millisecond))
	eng := cluster.NewEngine(nil, 2)
	slow.on.Store(true)
	start := time.Now()
	_, err = eng.Search(eng.ParseText("goal"), search.Options{K: 10})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("search against a stalled backend returned a ranking")
	}
	var be *BackendError
	if !errors.As(err, &be) {
		t.Fatalf("error %v (%T) is not a *BackendError", err, err)
	}
	if !be.Timeout() {
		t.Errorf("fault %v not reported as a timeout", be)
	}
	if elapsed > 2*time.Second {
		t.Errorf("deadline-exceeded search took %v, want ~200ms", elapsed)
	}
}

// garbageSwitch serves a selectable corruption mode on the search
// endpoint, passing everything else (stats, health) through to a real
// segment server so Connect succeeds.
type garbageSwitch struct {
	inner http.Handler
	mode  atomic.Int32
	seq   atomic.Uint64 // garbageFlap's per-request sequence
}

// Corruption modes. Every frame-shaped mode echoes the requested
// segment unless the echo itself is the fault, so each mode trips
// exactly one client-side check.
const (
	garbageOff         = iota // pass through
	garbageNotFrame           // 200 IVRB content type, body not a frame
	garbageTruncated          // 200 IVRB frame cut short
	garbageWrongSeg           // 200 valid frame, wrong segment echo
	garbageFewCands           // 200 valid frame, fewer candidates than hits
	garbageErrorStatus        // 500 with an error envelope
	garbageBadContent         // 200 valid frame, text/html content type
	garbageFlap               // search RPCs in alternating runs of 8: passed through, then truncated
	garbageUnranked           // 200 valid frame, hits out of rank order
)

func (g *garbageSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mode := g.mode.Load()
	if mode == garbageOff || r.URL.Path != SearchPath {
		g.inner.ServeHTTP(w, r)
		return
	}
	if mode == garbageFlap {
		// Runs longer than one query's fan-out, so whole queries land on
		// either side of a flip as well as across it.
		if (g.seq.Add(1)-1)/8%2 == 0 {
			g.inner.ServeHTTP(w, r)
			return
		}
		mode = garbageTruncated
	}
	if mode == garbageErrorStatus {
		tier.WriteError(w, http.StatusInternalServerError, tier.CodeInternal, "injected fault")
		return
	}
	var req SearchRequest
	body, err := io.ReadAll(r.Body)
	if err == nil {
		err = decodeSearchRequest(body, &req)
	}
	if err != nil {
		tier.WriteError(w, http.StatusBadRequest, tier.CodeInvalid, "garbage switch: %v", err)
		return
	}
	hits := []WireHit{{Doc: 0, ID: "s0000", Score: 1}}
	segment, candidates := req.Segment, len(hits)
	switch mode {
	case garbageWrongSeg:
		segment = 9999
	case garbageFewCands:
		candidates = 0
	case garbageUnranked:
		hits = append(hits, WireHit{Doc: 2, ID: "s0002", Score: 2})
		candidates = len(hits)
	}
	frame := appendSearchResponse(nil, segment, hits, candidates)
	contentType := ContentTypeBinary
	switch mode {
	case garbageNotFrame:
		frame = []byte("\xde\xad\xbe\xef not a frame")
	case garbageTruncated:
		frame = frame[:len(frame)-3]
	case garbageBadContent:
		contentType = "text/html"
	}
	w.Header().Set("Content-Type", contentType)
	_, _ = w.Write(frame)
}

// TestGarbageBackend: every corruption mode surfaces as a typed error
// — a garbage body can never decay into an empty or wrong partial
// ranking.
func TestGarbageBackend(t *testing.T) {
	_, sh := buildCorpus(t, 13, 60, 2)
	srv, err := NewSegmentServer(ServerConfig{Sharded: sh})
	if err != nil {
		t.Fatal(err)
	}
	g := &garbageSwitch{inner: srv.Handler()}
	ts := httptest.NewServer(g)
	t.Cleanup(ts.Close)
	cluster := connectCluster(t, []string{ts.URL})
	eng := cluster.NewEngine(nil, 2)
	want, err := eng.Search(eng.ParseText("goal storm"), search.Options{K: 10})
	if err != nil || len(want.Hits) == 0 {
		t.Fatalf("healthy search: %v (%d hits)", err, len(want.Hits))
	}

	cases := []struct {
		name     string
		mode     int32
		sentinel error
	}{
		{"not a frame", garbageNotFrame, ErrBadResponse},
		{"truncated frame", garbageTruncated, ErrBadResponse},
		{"wrong segment echo", garbageWrongSeg, ErrBadResponse},
		{"candidates below hits", garbageFewCands, ErrBadResponse},
		{"error status", garbageErrorStatus, ErrBackendStatus},
		{"wrong content type", garbageBadContent, ErrBadResponse},
		{"hits out of rank order", garbageUnranked, ErrBadResponse},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g.mode.Store(tc.mode)
			defer g.mode.Store(garbageOff)
			_, err := eng.Search(eng.ParseText("goal storm"), search.Options{K: 10})
			if err == nil {
				t.Fatal("corrupted backend produced a ranking")
			}
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("error %v does not match sentinel %v", err, tc.sentinel)
			}
			var be *BackendError
			if !errors.As(err, &be) {
				t.Fatalf("error %v (%T) is not a *BackendError", err, err)
			}
		})
	}

	// Recovery: clearing the fault restores bit-identical service.
	got, err := eng.Search(eng.ParseText("goal storm"), search.Options{K: 10})
	if err != nil {
		t.Fatalf("recovered search failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-fault ranking differs from pre-fault ranking")
	}
}

// TestConcurrentSearchWithFlappingBackend hammers one engine from many
// goroutines while a backend flaps between healthy and corrupt on
// alternate search RPCs (run under -race in CI): every call must return
// either the exact healthy ranking or a typed error — nothing in
// between.
func TestConcurrentSearchWithFlappingBackend(t *testing.T) {
	_, sh := buildCorpus(t, 17, 100, 4)
	srv, err := NewSegmentServer(ServerConfig{Sharded: sh})
	if err != nil {
		t.Fatal(err)
	}
	g := &garbageSwitch{inner: srv.Handler()}
	ts := httptest.NewServer(g)
	t.Cleanup(ts.Close)
	cluster := connectCluster(t, []string{ts.URL})
	eng := cluster.NewEngine(nil, 4)
	want, err := eng.Search(eng.ParseText("goal vote"), search.Options{K: 25})
	if err != nil {
		t.Fatal(err)
	}

	g.mode.Store(garbageFlap)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				got, err := eng.Search(eng.ParseText("goal vote"), search.Options{K: 25})
				if err != nil {
					if !errors.Is(err, ErrBadResponse) {
						errs <- fmt.Errorf("unexpected error kind: %w", err)
						return
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("flapping backend produced a divergent ranking")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
