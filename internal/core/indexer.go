package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/collection"
	"repro/internal/index"
	"repro/internal/search"
	"repro/internal/text"
)

// shotDocument fills doc with one shot: its ASR transcript plus its
// story title in the text field (titles are what interfaces display,
// so they are searchable), and its detector concepts in the concept
// field with confidence encoded as integer weight (conf 0.73 -> tf 7),
// so concept retrieval ranks by detector confidence. memo is the
// calling goroutine's text.Analyzer.Scan memo.
func shotDocument(doc *index.Document, coll *collection.Collection, an *text.Analyzer, memo map[string]string, s *collection.Shot) *index.Document {
	doc.Reset(string(s.ID))
	addText := func(term string) { doc.AddTerms(index.FieldText, term) }
	an.Scan(s.Transcript, memo, addText)
	if story := coll.Story(s.StoryID); story != nil {
		an.Scan(story.Title, memo, addText)
	}
	for _, cs := range s.Concepts {
		w := int(math.Round(cs.Confidence * 10))
		if w < 1 {
			w = 1
		}
		doc.SetTermCount(index.FieldConcept, string(cs.Concept), w)
	}
	return doc
}

// buildSegments indexes coll into n segments, dealing shots
// round-robin in collection order: segment k holds the shots whose
// position i satisfies i mod n = k, in order. One goroutine builds each
// segment with its own Builder, reused Document and Scan memo, so the
// segments come out byte-identical to a sequential round-robin build.
func buildSegments(coll *collection.Collection, an *text.Analyzer, n int) ([]*index.Index, error) {
	if coll == nil {
		return nil, fmt.Errorf("core: nil collection")
	}
	if an == nil {
		an = text.NewAnalyzer()
	}
	if n < 1 {
		n = 1
	}
	shots := make([]*collection.Shot, 0, coll.NumShots())
	coll.Shots(func(s *collection.Shot) bool {
		shots = append(shots, s)
		return true
	})
	segs := make([]*index.Index, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := index.NewBuilder()
			doc := index.NewDocument("")
			memo := make(map[string]string)
			for i := k; i < len(shots); i += n {
				if err := b.AddDocument(shotDocument(doc, coll, an, memo, shots[i])); err != nil {
					errs[k] = fmt.Errorf("core: indexing shot %s: %w", shots[i].ID, err)
					return
				}
			}
			segs[k] = b.Build()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return segs, nil
}

// BuildIndex indexes a collection into a single monolithic index: the
// one-segment case of BuildShardedIndex, byte for byte.
func BuildIndex(coll *collection.Collection, an *text.Analyzer) (*index.Index, error) {
	segs, err := buildSegments(coll, an, 1)
	if err != nil {
		return nil, err
	}
	return segs[0], nil
}

// BuildShardedIndex indexes a collection into `segments` self-contained
// index segments (round-robin by shot order), the layout the parallel
// search executor fans out over. It builds the segments concurrently,
// one goroutine per segment; the bytes of every segment, and so global
// document IDs and ranking output, are the same as a sequential build
// and match BuildIndex exactly.
func BuildShardedIndex(coll *collection.Collection, an *text.Analyzer, segments int) (*index.Sharded, error) {
	segs, err := buildSegments(coll, an, segments)
	if err != nil {
		return nil, err
	}
	return index.NewSharded(segs)
}

// NewSystemFromCollection is the one-call constructor: analyse, index
// and wire a System over coll. Config.Segments > 1 builds a sharded
// index behind a parallel fan-out engine; rankings are identical
// either way.
func NewSystemFromCollection(coll *collection.Collection, cfg Config) (*System, error) {
	an := text.NewAnalyzer()
	var engine *search.Engine
	if cfg.Segments > 1 {
		sh, err := BuildShardedIndex(coll, an, cfg.Segments)
		if err != nil {
			return nil, err
		}
		engine = search.NewShardedEngine(sh, an, cfg.SearchWorkers)
	} else {
		ix, err := BuildIndex(coll, an)
		if err != nil {
			return nil, err
		}
		engine = search.NewEngine(ix, an)
	}
	return NewSystem(engine, coll, cfg)
}
