package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/client"
	"repro/internal/search"
)

// Counter scrapes. The harness reads the system's own counters only
// through its public telemetry endpoints (/api/v1/metrics on ivrserve
// and ivrroute, /rpc/v1/metrics on ivrsegment), once before and once
// after the measured window, so per-layer ratios are measured where the
// work happens without adding any flag, endpoint or symbol.

// scrape is the counters of one topology at one instant, summed over
// its processes where several report the same thing.
type scrape struct {
	// retrieval (ivrserve)
	CacheHits, CacheShared, CacheMisses int64
	// search kernel: ivrserve's own when it scores locally, the
	// segment servers' when it scatters.
	BlocksScored, BlocksSkipped int64
	// webapi (ivrserve)
	Requests, Non2xx, Err5xx     int64
	Shed, Aborted, Queued        int64
	DeadlineExceeded, PartialRes int64
	// core (ivrserve)
	Persisted, PersistErrors int64
	// distrib (ivrserve's view of its backends)
	BackendRequests, BackendErrors int64
	Hedges, Failovers, RetryTaken  int64
	BreakerTrips, CodecFallbacks   int64
	// router
	RouterErrors, RouterRerouted int64
}

type admissionBody struct {
	Queued  int64 `json:"queued"`
	Shed    int64 `json:"shed"`
	Aborted int64 `json:"aborted"`
}

type totalsBody struct {
	Requests  int64 `json:"requests"`
	Errors4xx int64 `json:"errors_4xx"`
	Errors5xx int64 `json:"errors_5xx"`
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

func getJSON(url string, out any) error {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

func scrapeTopology(tp *topology) (scrape, error) {
	var s scrape
	// The SDK's snapshot type covers routes, sessions and the retrieval
	// section; the overload fields sit beside it in the same body.
	var serve struct {
		client.MetricsSnapshot
		Admission        admissionBody `json:"admission"`
		DeadlineExceeded int64         `json:"deadline_exceeded"`
		PartialResults   int64         `json:"partial_results"`
	}
	if err := getJSON(tp.serveURL+"/api/v1/metrics", &serve); err != nil {
		return s, err
	}
	s.CacheHits = serve.Search.Cache.Hits
	s.CacheShared = serve.Search.Cache.Shared
	s.CacheMisses = serve.Search.Cache.Misses
	s.BlocksScored = serve.Search.Kernel.BlocksScored
	s.BlocksSkipped = serve.Search.Kernel.BlocksSkipped
	s.Requests = serve.Totals.Requests
	s.Non2xx = serve.Totals.Errors4xx + serve.Totals.Errors5xx
	s.Err5xx = serve.Totals.Errors5xx
	s.Shed, s.Aborted, s.Queued = serve.Admission.Shed, serve.Admission.Aborted, serve.Admission.Queued
	s.DeadlineExceeded = serve.DeadlineExceeded
	s.PartialRes = serve.PartialResults
	s.Persisted = serve.Sessions.Persisted
	s.PersistErrors = serve.Sessions.PersistErrors
	for _, b := range serve.Search.Backends {
		s.BackendRequests += b.Requests
		s.BackendErrors += b.Errors
		s.Hedges += b.Hedges
		s.Failovers += b.Failovers
		s.BreakerTrips += b.BreakerTrips
		s.CodecFallbacks += b.CodecFallbacks
	}
	if rb := serve.Search.RetryBudget; rb != nil {
		s.RetryTaken = rb.Taken
	}
	for _, u := range tp.segURLs {
		var seg struct {
			Totals           totalsBody         `json:"totals"`
			Kernel           search.KernelStats `json:"kernel"`
			Admission        admissionBody      `json:"admission"`
			DeadlineExceeded int64              `json:"deadline_exceeded"`
		}
		if err := getJSON(u+"/rpc/v1/metrics", &seg); err != nil {
			return s, err
		}
		s.BlocksScored += seg.Kernel.BlocksScored
		s.BlocksSkipped += seg.Kernel.BlocksSkipped
		s.Non2xx += seg.Totals.Errors4xx + seg.Totals.Errors5xx
		s.Err5xx += seg.Totals.Errors5xx
		s.Shed += seg.Admission.Shed
		s.Aborted += seg.Admission.Aborted
		s.Queued += seg.Admission.Queued
		s.DeadlineExceeded += seg.DeadlineExceeded
	}
	if tp.routeURL != "" {
		var rt struct {
			Replicas []struct {
				Errors   int64 `json:"errors"`
				Rerouted int64 `json:"rerouted"`
			} `json:"replicas"`
			DeadlineExceeded int64 `json:"deadline_exceeded"`
		}
		if err := getJSON(tp.routeURL+"/api/v1/metrics", &rt); err != nil {
			return s, err
		}
		for _, r := range rt.Replicas {
			s.RouterErrors += r.Errors
			s.RouterRerouted += r.Rerouted
		}
		s.DeadlineExceeded += rt.DeadlineExceeded
	}
	return s, nil
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// cacheHitRatio is the result cache's hit share over the window
// between two scrapes (shared single-flight waits count as hits, as in
// the server's own hit_ratio).
func cacheHitRatio(before, after scrape) float64 {
	hits := (after.CacheHits - before.CacheHits) + (after.CacheShared - before.CacheShared)
	return ratio(hits, hits+after.CacheMisses-before.CacheMisses)
}

// overloadMoved names every counter that must stay at zero for a run
// to be a valid measurement: sheds, retries, hedges, failovers,
// partial pages, deadline answers, and any non-2xx at all. They are
// checked as absolutes (zero since process start), which covers
// warm-up as well as the window. At two closed-loop clients none of
// these mechanisms has a reason to fire; if one does, the latency
// numbers describe queueing or a fault, not the program.
func overloadMoved(s scrape) []string {
	var moved []string
	check := func(name string, v int64) {
		if v != 0 {
			moved = append(moved, fmt.Sprintf("%s=%d", name, v))
		}
	}
	check("shed", s.Shed)
	check("admission_aborted", s.Aborted)
	check("deadline_exceeded", s.DeadlineExceeded)
	check("partial_results", s.PartialRes)
	check("non_2xx", s.Non2xx)
	check("persist_errors", s.PersistErrors)
	check("backend_errors", s.BackendErrors)
	check("hedges", s.Hedges)
	check("failovers", s.Failovers)
	check("retry_budget_taken", s.RetryTaken)
	check("breaker_trips", s.BreakerTrips)
	check("codec_fallbacks", s.CodecFallbacks)
	check("router_errors", s.RouterErrors)
	check("router_rerouted", s.RouterRerouted)
	return moved
}
