package search

import "repro/internal/index"

// scoreIndexSegmentMapOracle is the pre-kernel scoring implementation,
// kept verbatim as the reference oracle: a map accumulator with
// per-posting interface dispatch into the Scorer. The dense pooled
// kernel must stay bit-identical to this function — same hit IDs, same
// scores, same candidate counts — across every scorer, K, seed,
// segment count and filter the parity suite throws at it. Do not
// "improve" this function; its naivety is the point.
func scoreIndexSegmentMapOracle(seg *index.Index, globalID func(index.DocID) index.DocID,
	q Query, stats []TermStats, scorer Scorer, filter func(string) bool, k int) SegmentResult {
	acc := make(map[index.DocID]float64)
	for ti, t := range q.Terms {
		if stats[ti].DF == 0 || t.Weight == 0 {
			continue
		}
		it := seg.PostingsFor(q.Field, t.Term)
		for it.Next() {
			doc := it.Doc()
			acc[doc] += scorer.TermScore(stats[ti], it.TF(), seg.DocLen(q.Field, doc))
		}
	}
	if k <= 0 {
		k = len(acc)
		if k == 0 {
			k = 1
		}
	}
	sumW := q.SumWeights()
	top := NewTopK(k)
	candidates := 0
	for doc, score := range acc {
		id := seg.ExternalID(doc)
		if filter != nil && !filter(id) {
			continue
		}
		candidates++
		score += scorer.DocScore(sumW, seg.DocLen(q.Field, doc))
		top.Offer(Hit{Doc: globalID(doc), ID: id, Score: score})
	}
	return SegmentResult{Hits: top.Ranked(), Candidates: candidates}
}

// globalStatsFor assembles the collection-wide TermStats the engine
// would compute for q over stats (a StatsView), exactly as
// Engine.Search does.
func globalStatsFor(q Query, sv StatsView) []TermStats {
	n := sv.NumDocs()
	avgdl := sv.AvgDocLen(q.Field)
	totalLen := sv.TotalFieldLen(q.Field)
	stats := make([]TermStats, len(q.Terms))
	for i, t := range q.Terms {
		stats[i] = TermStats{
			N: n, AvgDocLen: avgdl, TotalLen: totalLen,
			DF: sv.DocFreq(q.Field, t.Term), CF: sv.CollectionFreq(q.Field, t.Term),
			Weight: t.Weight,
		}
	}
	return stats
}
