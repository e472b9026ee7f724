// Package distrib splits retrieval across processes: segment servers
// (cmd/ivrsegment) each host one or more index segments behind a small
// versioned HTTP RPC surface, and a merge tier (Cluster) scatters
// queries over them and gathers the partial top-k lists back through
// the exact same search.Engine merge the in-process fan-out uses.
//
// The parity mechanism is deliberate and narrow:
//
//   - collection-wide statistics (doc counts, field lengths, per-term
//     df/cf) are aggregated ONCE at startup over the same contract
//     index.Sharded pins down, and every query ships the precomputed
//     global per-term statistics to every segment;
//   - both sides of the process boundary execute the one exported
//     scoring kernel, search.ScoreIndexSegment;
//   - search bodies travel as IVRB binary frames (codec.go) that carry
//     every score and statistic as its raw IEEE-754 bits, so they cross
//     the wire bit-identically; the JSON fallback is exact too, because
//     encoding/json formats float64 in shortest form.
//
// Distributed rankings are therefore bit-identical to the in-process
// engine over the same document stream — the distributed parity test
// suite pins this.
//
// RPC surface (JSON except search bodies; errors use the same
// envelope as /api/v1, {"error":{"code","message"}}):
//
//	GET  /rpc/v1/stats         segment topology + full per-term statistics
//	POST /rpc/v1/search        score one hosted segment with shipped stats
//	                           (IVRB frames under ContentTypeBinary, JSON otherwise)
//	GET  /rpc/v1/healthz       liveness
//	GET  /rpc/v1/metrics       per-route telemetry snapshot (?format=prometheus for text exposition)
//	GET  /rpc/v1/debug/traces  ring of recently finished query traces
//	GET  /metrics              Prometheus scrape alias
//
// Search requests carry the trace header contract (X-Request-Id
// honoured and echoed; X-IVR-Trace: 1 asks the server to serialise its
// span tree into the response header — see package trace).
package distrib

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"repro/internal/collection"
	"repro/internal/index"
)

// RPC paths, versioned like the public API.
const (
	StatsPath   = "/rpc/v1/stats"
	SearchPath  = "/rpc/v1/search"
	HealthPath  = "/rpc/v1/healthz"
	MetricsPath = "/rpc/v1/metrics"
	// TracesPath serves the ring of recently finished traces.
	TracesPath = "/rpc/v1/debug/traces"
	// MetricsAliasPath is the conventional Prometheus scrape path; it
	// serves MetricsPath's ?format=prometheus rendering.
	MetricsAliasPath = "/metrics"
)

// MaxSearchBody bounds /rpc/v1/search request bodies. Expanded queries
// ship at most a few dozen terms with their statistics; 1 MiB is three
// orders of magnitude of headroom.
const MaxSearchBody = 1 << 20

// WireTerm is one analysed query term with its query-side weight.
type WireTerm struct {
	Term   string  `json:"term"`
	Weight float64 `json:"weight"`
}

// WireTermStats carries the merge-tier-computed collection-wide
// statistics for one query term (parallel to the request's terms).
// Shipping them — instead of letting a segment consult its own partial
// statistics — is what keeps remote scoring bit-identical to the
// in-process fan-out.
type WireTermStats struct {
	N         int     `json:"n"`
	AvgDocLen float64 `json:"avg_doc_len"`
	TotalLen  int64   `json:"total_len"`
	DF        int     `json:"df"`
	CF        int64   `json:"cf"`
	Weight    float64 `json:"weight"`
}

// ScorerSpec names a scorer and its parameters on the wire. Only the
// built-in scorer families are serialisable; a custom Scorer
// implementation cannot cross the process boundary.
type ScorerSpec struct {
	Name string `json:"name"`
	// K1/B parameterise bm25, Mu parameterises dirichlet-lm; zero
	// values select each scorer's own defaults, exactly as in-process.
	K1 float64 `json:"k1,omitempty"`
	B  float64 `json:"b,omitempty"`
	Mu float64 `json:"mu,omitempty"`
}

// SearchRequest asks a segment server to score one hosted segment.
type SearchRequest struct {
	// Segment is the global segment ordinal to score.
	Segment int `json:"segment"`
	// Field is the index field name ("text" or "concept").
	Field  string          `json:"field"`
	Terms  []WireTerm      `json:"terms"`
	Stats  []WireTermStats `json:"stats"`
	Scorer ScorerSpec      `json:"scorer"`
	// K bounds the segment-local result list; K <= 0 returns every
	// candidate (the merge tier requests the full list when it must
	// apply an opaque filter itself).
	K int `json:"k"`
}

// WireHit is one scored document: the global doc ID, the external
// (shot) identifier, and the final segment-computed score.
type WireHit struct {
	Doc   uint32  `json:"doc"`
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

// SearchResponse is one segment's partial result. Segment and
// Candidates are pointers so the merge tier can tell a well-formed
// empty result from a garbage body that happens to parse as JSON:
// a response missing either key is rejected as malformed.
type SearchResponse struct {
	Segment    *int      `json:"segment"`
	Hits       []WireHit `json:"hits"`
	Candidates *int      `json:"candidates"`
}

// TermCounts is one term's document and collection frequency.
type TermCounts struct {
	DF int   `json:"df"`
	CF int64 `json:"cf"`
}

// FieldStats is one field's complete statistics for one segment.
type FieldStats struct {
	TotalLen int64                 `json:"total_len"`
	Terms    map[string]TermCounts `json:"terms"`
}

// SegmentStats is everything the merge tier needs to fold one hosted
// segment into the global statistics: its ordinal, document count,
// external IDs in local doc-ID order (global ID arithmetic and
// DocIDOf come from these), and full per-field term statistics.
type SegmentStats struct {
	Segment int                   `json:"segment"`
	NumDocs int                   `json:"num_docs"`
	ExtIDs  []string              `json:"ext_ids"`
	Fields  map[string]FieldStats `json:"fields"`
}

// StatsResponse is the /rpc/v1/stats body: the topology this server
// participates in and the statistics of every segment it hosts.
type StatsResponse struct {
	// Segments is the total segment count of the sharded build, shared
	// by every server of one topology.
	Segments int `json:"segments"`
	// CollectionHash fingerprints the full document stream (see
	// CollectionHash); servers built from different corpora — or
	// different segment counts — disagree here and are rejected at
	// connect time.
	CollectionHash uint64 `json:"collection_hash"`
	// SourceHash fingerprints the source collection the index was
	// built from (see CollectionSourceHash), covering the metadata the
	// merge tier serves locally (titles, categories, durations) as
	// well as the indexed text. Zero when the server was wired from a
	// bare index with no collection.
	SourceHash uint64 `json:"source_hash,omitempty"`
	// Hosted lists the segments this server scores, ascending ordinal.
	Hosted []SegmentStats `json:"hosted"`
}

// fieldByName parses a wire field name.
func fieldByName(name string) (index.Field, error) {
	switch name {
	case index.FieldText.String():
		return index.FieldText, nil
	case index.FieldConcept.String():
		return index.FieldConcept, nil
	}
	return 0, fmt.Errorf("distrib: unknown field %q", name)
}

// statsFields enumerates the fields exported in SegmentStats.
var statsFields = []index.Field{index.FieldText, index.FieldConcept}

// hasher frames values into an FNV-1a fingerprint: integers as 8-byte
// little-endian words, strings length-prefixed. One encoding shared by
// both collection fingerprints, so the framing cannot drift between
// them.
type hasher struct {
	h   hash.Hash64
	buf [8]byte
}

func newHasher() *hasher { return &hasher{h: fnv.New64a()} }

func (hs *hasher) put(v uint64) {
	for i := range hs.buf {
		hs.buf[i] = byte(v >> (8 * i))
	}
	hs.h.Write(hs.buf[:])
}

func (hs *hasher) putStr(s string) {
	hs.put(uint64(len(s)))
	hs.h.Write([]byte(s))
}

func (hs *hasher) sum() uint64 { return hs.h.Sum64() }

// CollectionSourceHash fingerprints a collection's served content:
// every shot's identifiers, transcript, duration and concepts, plus
// its story's title and category, in shot iteration order. The merge
// tier serves shot metadata from its *local* collection while scores
// come from the segment servers, so both sides hash their collection
// and ivrserve refuses a topology whose backends were generated from
// a different archive — even one that happens to contain the same
// number of shots with the same IDs.
func CollectionSourceHash(coll *collection.Collection) uint64 {
	hs := newHasher()
	coll.Shots(func(s *collection.Shot) bool {
		hs.putStr(string(s.ID))
		hs.putStr(string(s.VideoID))
		hs.putStr(string(s.StoryID))
		hs.putStr(s.Transcript)
		hs.put(math.Float64bits(s.Duration.Seconds()))
		hs.put(uint64(len(s.Concepts)))
		for _, cs := range s.Concepts {
			hs.putStr(string(cs.Concept))
			hs.put(math.Float64bits(cs.Confidence))
		}
		if story := coll.Story(s.StoryID); story != nil {
			hs.putStr(story.Title)
			hs.putStr(story.Category.String())
		}
		return true
	})
	return hs.sum()
}

// CollectionHash fingerprints a sharded build's full content: the
// segment count, every external ID in global (insertion) order, and
// every segment's per-field statistics (total length plus the sorted
// term/df/cf dictionary). Every server of one topology computes it
// over its complete local build — each ivrsegment indexes the whole
// archive and then hosts a subset — so two servers agree if and only
// if they were built from the same document stream with the same
// segment count. The merge tier rejects a topology whose backends
// disagree, before the first query can mix statistics from different
// corpora.
func CollectionHash(sh *index.Sharded) uint64 {
	hs := newHasher()
	hs.put(uint64(sh.NumSegments()))
	hs.put(uint64(sh.NumDocs()))
	for g := 0; g < sh.NumDocs(); g++ {
		hs.putStr(sh.ExternalID(index.DocID(g)))
	}
	for ord := 0; ord < sh.NumSegments(); ord++ {
		seg := sh.Segment(ord)
		for _, f := range statsFields {
			hs.put(uint64(seg.TotalFieldLen(f)))
			seg.EachTerm(f, func(term string, df int, cf int64) bool {
				hs.putStr(term)
				hs.put(uint64(df))
				hs.put(uint64(cf))
				return true
			})
		}
	}
	return hs.sum()
}
