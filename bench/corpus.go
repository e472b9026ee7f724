package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/ilog"
	"repro/internal/store"
	"repro/internal/synth"
)

// Corpus constants (ISSUE 11). synth.DefaultConfig scaled to 900
// broadcast days and 100 search topics is about 49k shots: large enough
// that an adapted search is search-bound over HTTP (the serve.adapt
// validity guard), small enough that the index builds in a few
// seconds. Raise corpusDays, and nothing else, if that guard ever
// fails.
const (
	corpusDays   = 900
	corpusTopics = 100
	// rankDepth is ivrserve's default -depth; the oracle must rank to
	// the same depth because Total and the seen set depend on it.
	rankDepth = 200
	// systemPreset is ivrserve's default -preset.
	systemPreset = core.PresetCombined
)

func benchCorpus() synth.Config {
	cfg := synth.DefaultConfig()
	cfg.Days = corpusDays
	cfg.NumSearchTopics = corpusTopics
	return cfg
}

// corpus is the seeded archive on disk plus what the harness keeps of
// it in memory.
type corpus struct {
	arch   *synth.Archive
	path   string // the .ivrarc every server process loads
	topics []topic
	// Per-layer set-up timings, measured once here so the processes'
	// setup_s has its lever named: generate and save are the
	// harness's, load and index build are what each server repeats.
	generateS, saveS float64
}

func buildCorpus(cfg synth.Config, seed int64, dir string) (*corpus, error) {
	c := &corpus{path: filepath.Join(dir, "bench.ivrarc")}
	t := time.Now()
	arch, err := synth.Generate(cfg, seed)
	if err != nil {
		return nil, fmt.Errorf("generate archive: %w", err)
	}
	c.generateS = time.Since(t).Seconds()
	t = time.Now()
	if err := store.Save(c.path, arch); err != nil {
		return nil, fmt.Errorf("save archive: %w", err)
	}
	c.saveS = time.Since(t).Seconds()
	c.arch = arch
	for _, st := range arch.Truth.SearchTopics {
		judged := arch.Truth.Qrels[st.ID]
		c.topics = append(c.topics, topic{
			ID:    st.ID,
			Query: st.Query,
			Relevant: func(shotID string) bool {
				return judged[collection.ShotID(shotID)] >= 1
			},
		})
	}
	if len(c.topics) == 0 {
		return nil, fmt.Errorf("archive has no search topics")
	}
	return c, nil
}

// systemConfig is the configuration ivrserve runs with under the
// flags the harness passes, so in-process systems rank identically.
func systemConfig(segments, cacheSize int) (core.Config, error) {
	cfg, err := core.Preset(systemPreset)
	if err != nil {
		return core.Config{}, err
	}
	cfg.K = rankDepth
	cfg.Segments = segments
	cfg.CacheSize = cacheSize
	return cfg, nil
}

// newOracle builds the reference system: one segment, no result
// cache, in this process. Every topology must rank exactly like it.
func newOracle(coll *collection.Collection) (*core.System, error) {
	cfg, err := systemConfig(1, 0)
	if err != nil {
		return nil, err
	}
	return core.NewSystemFromCollection(coll, cfg)
}

// coreBackend runs sessions directly on core.Session: the oracle, and
// the ladder's core rung. One instance serves one goroutine.
type coreBackend struct {
	sys      *core.System
	sessions map[string]*core.Session
	next     int
}

func newCoreBackend(sys *core.System) *coreBackend {
	return &coreBackend{sys: sys, sessions: make(map[string]*core.Session)}
}

func (b *coreBackend) create(context.Context) (string, error) {
	b.next++
	id := "o" + strconv.Itoa(b.next)
	b.sessions[id] = b.sys.NewSession(id, nil)
	return id, nil
}

func (b *coreBackend) session(id string) (*core.Session, error) {
	sess := b.sessions[id]
	if sess == nil {
		return nil, fmt.Errorf("no session %q", id)
	}
	return sess, nil
}

func (b *coreBackend) search(ctx context.Context, id, query string, offset int) (page, error) {
	sess, err := b.session(id)
	if err != nil {
		return page{}, err
	}
	res, err := sess.QueryContext(ctx, query)
	if err != nil {
		return page{}, err
	}
	p := page{Step: sess.Step(), Candidates: res.Candidates, Total: len(res.Hits), Partial: res.Partial}
	if offset < len(res.Hits) {
		win := res.Hits[offset:]
		if len(win) > pageSize {
			win = win[:pageSize]
		}
		p.Hits = make([]pageHit, len(win))
		for i, h := range win {
			p.Hits[i] = pageHit{ID: h.ID, Score: h.Score}
		}
	}
	return p, nil
}

func (b *coreBackend) events(_ context.Context, id string, events []ilog.Event) error {
	sess, err := b.session(id)
	if err != nil {
		return err
	}
	return sess.ObserveAll(events)
}

func (b *coreBackend) state(_ context.Context, id string) (sessionState, error) {
	sess, err := b.session(id)
	if err != nil {
		return sessionState{}, err
	}
	return sessionState{Step: sess.Step(), Evidence: sess.EvidenceCount(), Seen: sess.SeenShots()}, nil
}

func (b *coreBackend) delete(_ context.Context, id string) error {
	if _, err := b.session(id); err != nil {
		return err
	}
	delete(b.sessions, id)
	return nil
}
