package loadgen

import (
	"context"
	"fmt"

	"repro/internal/client"
	"repro/internal/search"
	"repro/internal/simulation"
	"repro/internal/synth"
	"repro/internal/ui"
)

// StudyConfig parameterises a remote user study: the (user, topic)
// design internal/simulation runs in process, run by the same session
// loop over HTTP. The server only sees sessions, searches and events.
type StudyConfig struct {
	// Client is the SDK handle to the target server. Required.
	Client *client.Client
	// Workers bounds concurrent sessions (default 8). Unlike the
	// in-process study, sessions run concurrently: per-session seeds
	// keep each session's behaviour reproducible even though
	// completion order is not.
	Workers int
	// Iterations is the number of query iterations per session
	// (default 3).
	Iterations int
	// Iface is the interaction-environment model (default
	// ui.Desktop()).
	Iface *ui.Interface
	// Archive supplies the ground truth and the study clock. Required;
	// it must be the archive the server serves.
	Archive *synth.Archive
	// Seed fixes per-session behaviour streams.
	Seed int64
}

// RunStudy runs an explicit (user, topic) assignment over HTTP — the
// remote counterpart of simulation.RunStudyPairs. Sessions run
// concurrently on the worker pool, but session seq runs
// simulation.RunPair as the in-process study does, so a server with
// the same archive and system configuration yields the same events
// and metrics. Each search fetches the top search.DefaultK hits, the
// in-process ranking depth. Failed and aborted sessions are left out
// of the study and counted in the report.
func RunStudy(ctx context.Context, cfg StudyConfig, pairs []simulation.StudyPair) (*simulation.StudyResult, *Report, error) {
	if cfg.Client == nil || cfg.Archive == nil {
		return nil, nil, fmt.Errorf("loadgen: study needs a client and an archive")
	}
	if err := simulation.ValidatePairs(pairs); err != nil {
		return nil, nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 3
	}
	if cfg.Iface == nil {
		cfg.Iface = ui.Desktop()
	}
	if err := cfg.Iface.Validate(); err != nil {
		return nil, nil, err
	}

	// The study rides the generic pool: pacing is closed-loop (a lab
	// study has no arrival process), one task per pair.
	poolCfg := &Config{
		Clients:    []*client.Client{cfg.Client},
		Users:      min(cfg.Workers, len(pairs)),
		Sessions:   len(pairs),
		Iterations: cfg.Iterations,
		Pacing:     PacingClosed,
		PageLimit:  search.DefaultK,
		Seed:       cfg.Seed,
		Iface:      cfg.Iface,
	}
	results := make([]*simulation.SessionResult, len(pairs))
	shards, elapsed, _ := runPool(ctx, poolCfg, func(ctx context.Context, w *worker, seq int) {
		pair := pairs[seq]
		var sr *simulation.SessionResult
		err := w.driveSession(ctx, createRequest(pair.User), func(t simulation.Transport, sessionID string) (err error) {
			sr, err = simulation.RunPair(t, cfg.Archive, cfg.Iface, pair, seq, cfg.Iterations, cfg.Seed, sessionID)
			return err
		})
		if err == nil {
			results[seq] = sr
		}
	})
	var sessions []*simulation.SessionResult
	for _, sr := range results {
		if sr != nil {
			sessions = append(sessions, sr)
		}
	}
	return simulation.Aggregate(sessions), buildReport(poolCfg, shards, elapsed), nil
}

// createRequest registers a participant's static profile with the
// server-side session.
func createRequest(user *simulation.StudyUser) client.CreateSessionRequest {
	req := client.CreateSessionRequest{UserID: "anon"}
	if p := user.Profile; p != nil {
		req.UserID = p.UserID
		req.Interests = map[string]float64{}
		for _, cat := range p.Categories() {
			req.Interests[cat.String()] = p.Interest(cat)
		}
	}
	return req
}
