// Package core implements the paper's primary contribution: an
// adaptive video retrieval model that combines a ranked-retrieval
// engine with (a) static user profiles and (b) implicit relevance
// feedback accumulated from interface interactions, per the paper's
// RQ3 ("how both static user profiles and implicit relevance feedback
// should be combined to adapt to the users need").
//
// The model is packaged as a System (the wiring plus adaptation
// switches) producing Sessions (per-user, per-task state machines).
// Turning both switches off yields the non-adaptive baseline the
// experiments compare against.
package core

import (
	"fmt"
	"sort"

	"repro/internal/collection"
	"repro/internal/feedback"
	"repro/internal/index"
	"repro/internal/overload"
	"repro/internal/retrieval"
	"repro/internal/search"
	"repro/internal/text"
	"repro/internal/trace"
)

// Config selects and parameterises the adaptation behaviours.
type Config struct {
	// UseProfile enables static-profile re-ranking.
	UseProfile bool
	// UseImplicit enables implicit-feedback query expansion.
	UseImplicit bool

	// Scorer ranks candidates (default BM25).
	Scorer search.Scorer
	// K is the result-list depth (default search.DefaultK).
	K int

	// ProfileAlpha scales the profile boost relative to the top
	// retrieval score (0.2 means a fully-liked category can gain 20%
	// of the top score). Default 0.2.
	ProfileAlpha float64
	// ProfileLearnRate drifts the profile from positive implicit
	// evidence (0 disables drift). Default 0.
	ProfileLearnRate float64

	// Scheme weighs implicit evidence (default graded).
	Scheme feedback.Scheme
	// ExpandTerms and ExpandBeta control Rocchio expansion (defaults
	// 10 terms, beta 0.4).
	ExpandTerms int
	ExpandBeta  float64
	// ExpandMassSaturation scales expansion strength by evidence
	// confidence: the effective beta is ExpandBeta *
	// min(1, totalPositiveMass/ExpandMassSaturation), so a session
	// with one tentative click adapts gently while an evidence-rich
	// session adapts at full strength. Default 2 (about two
	// full-quality interactions).
	ExpandMassSaturation float64

	// Segments splits the inverted index into this many self-contained
	// segments, scored concurrently on a worker pool and merged; the
	// ranking is identical to the single-segment scan. 0 or 1 keeps
	// one segment.
	Segments int
	// SearchWorkers bounds the fan-out worker pool on a multi-segment
	// system (0 = GOMAXPROCS).
	SearchWorkers int
	// CacheSize bounds the evidence-keyed result cache in entries
	// (0 disables caching). Cached rankings are keyed on (normalized
	// query, evidence-state fingerprint, configuration), so a new
	// implicit event invalidates naturally by changing the key; the
	// cache is shared by all of the system's sessions.
	CacheSize int
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.Scorer == nil {
		c.Scorer = search.BM25{}
	}
	if c.K == 0 {
		c.K = search.DefaultK
	}
	if c.ProfileAlpha == 0 {
		c.ProfileAlpha = 0.2
	}
	if c.Scheme == nil {
		c.Scheme = feedback.DefaultGraded()
	}
	if c.ExpandTerms == 0 {
		c.ExpandTerms = 10
	}
	if c.ExpandBeta == 0 {
		c.ExpandBeta = 0.4
	}
	if c.ExpandMassSaturation == 0 {
		c.ExpandMassSaturation = 2
	}
	return c
}

// validate rejects incoherent configurations.
func (c Config) validate() error {
	switch {
	case c.K < 0:
		return fmt.Errorf("core: negative K")
	case c.ProfileAlpha < 0:
		return fmt.Errorf("core: negative ProfileAlpha")
	case c.ProfileLearnRate < 0 || c.ProfileLearnRate > 1:
		return fmt.Errorf("core: ProfileLearnRate %v outside [0,1]", c.ProfileLearnRate)
	case c.ExpandTerms < 0:
		return fmt.Errorf("core: negative ExpandTerms")
	case c.ExpandBeta < 0:
		return fmt.Errorf("core: negative ExpandBeta")
	case c.ExpandMassSaturation < 0:
		return fmt.Errorf("core: negative ExpandMassSaturation")
	case c.Segments < 0:
		return fmt.Errorf("core: negative Segments")
	case c.SearchWorkers < 0:
		return fmt.Errorf("core: negative SearchWorkers")
	case c.CacheSize < 0:
		return fmt.Errorf("core: negative CacheSize")
	}
	return nil
}

// Preset names for the four systems the T1 experiment compares.
const (
	PresetBaseline = "baseline"
	PresetProfile  = "profile"
	PresetImplicit = "implicit"
	PresetCombined = "combined"
)

// Preset returns the named adaptation configuration.
func Preset(name string) (Config, error) {
	switch name {
	case PresetBaseline:
		return Config{}, nil
	case PresetProfile:
		return Config{UseProfile: true}, nil
	case PresetImplicit:
		return Config{UseImplicit: true}, nil
	case PresetCombined:
		return Config{UseProfile: true, UseImplicit: true}, nil
	}
	return Config{}, fmt.Errorf("core: unknown preset %q", name)
}

// Presets lists the four system names in comparison order.
func Presets() []string {
	return []string{PresetBaseline, PresetProfile, PresetImplicit, PresetCombined}
}

// System is the wired adaptive retrieval model over one collection.
// It is immutable after construction and safe for concurrent Sessions;
// the embedded result cache and segment-timing collectors are
// internally synchronised.
type System struct {
	engine   *search.Engine
	coll     *collection.Collection
	config   Config
	expander *feedback.Expander
	// cache is the evidence-keyed result cache shared by every
	// session (nil when Config.CacheSize is 0).
	cache *retrieval.Cache
	// cfgKey is the configuration component of cache keys, fixed at
	// construction because the config is immutable.
	cfgKey string
	// segTimings collects per-segment scoring latency for /metrics.
	segTimings *retrieval.SegmentTimings
	// backendSnap, when wired (SetBackendTelemetry), contributes the
	// distributed merge tier's per-backend RPC telemetry to
	// RetrievalSnapshot.
	backendSnap func() []retrieval.BackendSummary
	// stageSnap, when wired (SetStageTelemetry), contributes per-stage
	// duration quantiles from the trace collector to RetrievalSnapshot.
	stageSnap func() []trace.StageSummary
	// budgetSnap, when wired (SetRetryBudgetTelemetry), contributes the
	// merge tier's retry token bucket to RetrievalSnapshot.
	budgetSnap func() overload.RetryBudgetStats
	// shots is the dense shot table, indexed by global DocID.
	shots []shotEntry
}

// shotEntry is one row of the dense shot table: the collection shot
// behind a global DocID and its story's category. A row with an empty
// id is a document the collection does not know.
type shotEntry struct {
	id     string
	cat    collection.Category
	hasCat bool
}

// NewSystem wires a system. engine and coll must be non-nil and built
// over the same collection (shot IDs are the join key). NewSystem
// installs the system's telemetry hook on the engine, so an engine
// should back at most one system.
func NewSystem(engine *search.Engine, coll *collection.Collection, cfg Config) (*System, error) {
	if engine == nil || coll == nil {
		return nil, fmt.Errorf("core: engine and collection are required")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &System{
		engine: engine,
		coll:   coll,
		config: cfg,
		cache:  retrieval.NewCache(cfg.CacheSize),
	}
	s.cfgKey = configKey(cfg)
	// The shot table joins the engine's global DocIDs to the
	// collection once, through the engine's own ID map, so local,
	// sharded and distributed engines all get it; per-hit work then
	// indexes a slice instead of hashing shot-ID strings.
	s.shots = make([]shotEntry, engine.NumDocs())
	coll.Shots(func(shot *collection.Shot) bool {
		d, ok := engine.DocIDOf(string(shot.ID))
		if !ok || int(d) >= len(s.shots) {
			return true
		}
		e := shotEntry{id: string(shot.ID)}
		if st := coll.Story(shot.StoryID); st != nil {
			e.cat, e.hasCat = st.Category, true
		}
		s.shots[d] = e
		return true
	})
	segDocs := make([]int, engine.NumSegments())
	for i := range segDocs {
		segDocs[i] = engine.SegmentDocs(i)
	}
	s.segTimings = retrieval.NewSegmentTimings(segDocs)
	engine.SetSegmentObserver(s.segTimings.Observe)
	// The expander reads statistics through the engine so it works
	// identically over single and sharded indexes.
	s.expander = feedback.NewExpander(engine.Analyzer(),
		func(id string) (string, bool) {
			shot := coll.Shot(collection.ShotID(id))
			if shot == nil {
				return "", false
			}
			return shot.Transcript, true
		},
		func(term string) int { return engine.DocFreq(index.FieldText, term) },
		engine.NumDocs())
	return s, nil
}

// configKey renders every config field that influences a ranking into
// the cache key's configuration component. Scorer and Scheme are
// parameterised values, so their rendered forms (not just names)
// participate.
func configKey(cfg Config) string {
	return fmt.Sprintf("implicit=%v|scorer=%T%+v|k=%d|scheme=%s|expand=%d,%g,%g",
		cfg.UseImplicit, cfg.Scorer, cfg.Scorer, cfg.K,
		cfg.Scheme.Name(), cfg.ExpandTerms, cfg.ExpandBeta, cfg.ExpandMassSaturation)
}

// Cache exposes the shared result cache (nil when disabled).
func (s *System) Cache() *retrieval.Cache { return s.cache }

// SetBackendTelemetry wires the distributed merge tier's per-backend
// snapshot into RetrievalSnapshot (ivrserve calls this with
// Cluster.BackendSummaries when -segment-addrs is set). Install at
// wiring time, before the system serves queries.
func (s *System) SetBackendTelemetry(fn func() []retrieval.BackendSummary) { s.backendSnap = fn }

// SetStageTelemetry wires the trace collector's per-stage duration
// quantiles into RetrievalSnapshot (the web API calls this with its
// collector's StageSummaries). Install at wiring time, before the
// system serves queries.
func (s *System) SetStageTelemetry(fn func() []trace.StageSummary) { s.stageSnap = fn }

// SetRetryBudgetTelemetry wires the merge tier's retry-budget snapshot
// into RetrievalSnapshot (ivrserve calls this alongside
// SetBackendTelemetry when serving a distributed topology).
func (s *System) SetRetryBudgetTelemetry(fn func() overload.RetryBudgetStats) { s.budgetSnap = fn }

// RetrievalSnapshot reports the engine-layer telemetry: cache
// counters, per-segment scoring latency, the scoring kernel's pool
// counters, and — on a distributed system — per-backend RPC counters.
func (s *System) RetrievalSnapshot() retrieval.Snapshot {
	snap := retrieval.Snapshot{
		Cache:    s.cache.Stats(),
		Segments: s.segTimings.Summaries(),
		Workers:  s.engine.Workers(),
		Kernel:   search.ReadKernelStats(),
	}
	if s.backendSnap != nil {
		snap.Backends = s.backendSnap()
	}
	if s.stageSnap != nil {
		snap.Stages = s.stageSnap()
	}
	if s.budgetSnap != nil {
		rb := s.budgetSnap()
		snap.RetryBudget = &rb
	}
	return snap
}

// Config returns the system's effective configuration.
func (s *System) Config() Config { return s.config }

// Engine exposes the underlying search engine.
func (s *System) Engine() *search.Engine { return s.engine }

// Collection exposes the underlying collection.
func (s *System) Collection() *collection.Collection { return s.coll }

// Analyzer returns the text pipeline shared by indexing and querying.
func (s *System) Analyzer() *text.Analyzer { return s.engine.Analyzer() }

// shot returns the shot table row of global DocID d, or nil when the
// table does not know d.
func (s *System) shot(d index.DocID) *shotEntry {
	if int(d) >= len(s.shots) || s.shots[d].id == "" {
		return nil
	}
	return &s.shots[d]
}

// shotDoc resolves a shot ID to its global DocID through the shot
// table (ok=false for a shot the table does not know).
func (s *System) shotDoc(id string) (index.DocID, bool) {
	d, ok := s.engine.DocIDOf(id)
	if !ok || s.shot(d) == nil {
		return 0, false
	}
	return d, true
}

// shotCategory resolves a shot's news category (ok=false for unknown
// shots).
func (s *System) shotCategory(id string) (collection.Category, bool) {
	st := s.coll.StoryOfShot(collection.ShotID(id))
	if st == nil {
		return 0, false
	}
	return st.Category, true
}

// shotSeconds returns a shot's duration in seconds (0 for unknown).
func (s *System) shotSeconds(id string) float64 {
	shot := s.coll.Shot(collection.ShotID(id))
	if shot == nil {
		return 0
	}
	return shot.Duration.Seconds()
}

// SearchOnce runs a plain, non-adapted query: the stateless baseline.
func (s *System) SearchOnce(queryText string) (search.Results, error) {
	q := s.engine.ParseText(queryText)
	return s.engine.Search(q, search.Options{K: s.config.K, Scorer: s.config.Scorer})
}

// SearchWithConcepts combines the text query with concept-detector
// evidence (used by the semantic-gap experiments, where concepts
// complement degraded ASR). The combination is asymmetric, reflecting
// the era's reliability gap between the two modalities:
//
//   - text hits are *rescored*: each gains conceptWeight x its
//     normalised concept score relative to the top text score, so
//     concept agreement reorders but never ejects text evidence;
//   - concept-only hits (shots whose transcript lost the query terms)
//     are *backfilled* after the text hits, recovering recall that ASR
//     errors destroyed.
func (s *System) SearchWithConcepts(queryText string, concepts []string, conceptWeight float64) (search.Results, error) {
	if conceptWeight < 0 || conceptWeight > 1 {
		return search.Results{}, fmt.Errorf("core: concept weight %v outside [0,1]", conceptWeight)
	}
	tq := s.engine.ParseText(queryText)
	tr, err := s.engine.Search(tq, search.Options{K: s.config.K, Scorer: s.config.Scorer})
	if err != nil {
		return search.Results{}, err
	}
	if len(concepts) == 0 || conceptWeight == 0 {
		return tr, nil
	}
	cr, err := s.engine.Search(search.ConceptQuery(concepts...), search.Options{K: s.config.K, Scorer: s.config.Scorer})
	if err != nil {
		return search.Results{}, err
	}
	if len(cr.Hits) == 0 {
		return tr, nil
	}
	// Normalised concept score per shot.
	topConcept := cr.Hits[0].Score
	cscore := make(map[string]float64, len(cr.Hits))
	for _, h := range cr.Hits {
		if topConcept > 0 {
			cscore[h.ID] = h.Score / topConcept
		}
	}
	inText := make(map[string]bool, len(tr.Hits))
	var fused []search.Hit
	var scale float64
	if len(tr.Hits) > 0 {
		scale = conceptWeight * tr.Hits[0].Score
	}
	for _, h := range tr.Hits {
		inText[h.ID] = true
		h.Score += scale * cscore[h.ID]
		fused = append(fused, h)
	}
	sortHits(fused)
	// Backfill concept-only candidates below the weakest text hit.
	floor := 0.0
	if len(fused) > 0 {
		floor = fused[len(fused)-1].Score
	}
	for _, h := range cr.Hits {
		if inText[h.ID] {
			continue
		}
		fused = append(fused, search.Hit{
			ID:    h.ID,
			Doc:   h.Doc,
			Score: floor - 1 + conceptWeight*cscore[h.ID],
		})
	}
	if len(fused) > s.config.K {
		fused = fused[:s.config.K]
	}
	return search.Results{Hits: fused, Candidates: len(fused)}, nil
}

// sortHits orders by descending score with ID ties ascending (the
// engine's canonical order).
func sortHits(hits []search.Hit) {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ID < hits[j].ID
	})
}
