// Package store persists complete archives — the collection (videos,
// stories, shots with transcripts, keyframes and concept annotations)
// plus the evaluation ground truth (topics, search topics, qrels,
// clean transcripts) — in a single versioned, CRC-checksummed binary
// container. It is the "recording framework" half of the paper's
// proposal: once a broadcast archive is built it can be stored, shipped
// and reopened without regenerating.
//
// Format (version 1):
//
//	magic    8 bytes  "IVRARC\x00\x01"
//	payload  N bytes  varint-encoded sections (config, collection, truth)
//	crc32    4 bytes  big-endian IEEE checksum of payload
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/binfmt"
	"repro/internal/collection"
	"repro/internal/synth"
)

const magic = "IVRARC\x00\x01"

// Errors surfaced by the container layer.
var (
	ErrBadFormat = errors.New("store: not an archive file or unsupported version")
	ErrChecksum  = errors.New("store: checksum mismatch (file corrupt)")
)

var archiveFile = binfmt.Container{Magic: magic, ErrFormat: ErrBadFormat, ErrChecksum: ErrChecksum}

// Write serialises an archive to w.
func Write(w io.Writer, arch *synth.Archive) (int64, error) {
	raw, err := encode(arch)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(raw)
	if err != nil {
		return int64(n), fmt.Errorf("store: write: %w", err)
	}
	return int64(n), nil
}

// Read deserialises an archive from r, verifying magic and checksum.
func Read(r io.Reader) (*synth.Archive, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: read: %w", err)
	}
	return decode(raw)
}

// Save writes the archive atomically and durably (see
// binfmt.WriteFileAtomic).
func Save(path string, arch *synth.Archive) error {
	raw, err := encode(arch)
	if err != nil {
		return err
	}
	if err := binfmt.WriteFileAtomic(path, raw); err != nil {
		return fmt.Errorf("store: save: %w", err)
	}
	return nil
}

// Load reads an archive file written by Save.
func Load(path string) (*synth.Archive, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: load: %w", err)
	}
	return decode(raw)
}

func encode(arch *synth.Archive) ([]byte, error) {
	if arch == nil || arch.Collection == nil || arch.Truth == nil {
		return nil, fmt.Errorf("store: incomplete archive")
	}
	b := archiveFile.Begin()
	b = writeConfig(b, arch.Config)
	b = writeCollection(b, arch.Collection)
	b = writeTruth(b, arch.Truth)
	return archiveFile.Seal(b), nil
}

func decode(raw []byte) (*synth.Archive, error) {
	payload, err := archiveFile.Open(raw)
	if err != nil {
		return nil, err
	}
	p := binfmt.NewReader(payload)
	cfg := readConfig(&p)
	coll := readCollection(&p)
	truth := readTruth(&p, coll)
	if err := p.Done(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadFormat, err)
	}
	if err := coll.Validate(); err != nil {
		return nil, fmt.Errorf("%w: loaded collection invalid: %w", ErrBadFormat, err)
	}
	return &synth.Archive{Collection: coll, Truth: truth, Config: cfg}, nil
}

// Floats are stored as the uvarint of their IEEE-754 bits.
func appendF64(b []byte, v float64) []byte { return binary.AppendUvarint(b, math.Float64bits(v)) }

func readF64(p *binfmt.Reader) float64 { return math.Float64frombits(p.Uvarint()) }

func writeConfig(b []byte, cfg synth.Config) []byte {
	for _, v := range []int{
		cfg.Days, cfg.StoriesPerVideo, cfg.MinShotsPerStory, cfg.MaxShotsPerStory,
		cfg.MinWordsPerShot, cfg.MaxWordsPerShot, cfg.NumTopics, cfg.NumSearchTopics,
		cfg.BackgroundVocab, cfg.TermsPerTopic, cfg.TermsPerCategory,
	} {
		b = binary.AppendVarint(b, int64(v))
	}
	for _, v := range []float64{
		cfg.TopicMix, cfg.CategoryMix, cfg.LeakMix, cfg.WER,
		cfg.Detector.TPR, cfg.Detector.FPR, cfg.MinShotSeconds, cfg.MaxShotSeconds,
	} {
		b = appendF64(b, v)
	}
	b = binary.AppendVarint(b, int64(cfg.MaxKeyframesPerShot))
	b = binfmt.AppendString(b, cfg.Channel)
	return binary.AppendVarint(b, cfg.StartDate.UnixNano())
}

func readConfig(p *binfmt.Reader) synth.Config {
	var cfg synth.Config
	for _, dst := range []*int{
		&cfg.Days, &cfg.StoriesPerVideo, &cfg.MinShotsPerStory, &cfg.MaxShotsPerStory,
		&cfg.MinWordsPerShot, &cfg.MaxWordsPerShot, &cfg.NumTopics, &cfg.NumSearchTopics,
		&cfg.BackgroundVocab, &cfg.TermsPerTopic, &cfg.TermsPerCategory,
	} {
		*dst = int(p.Varint())
	}
	for _, dst := range []*float64{
		&cfg.TopicMix, &cfg.CategoryMix, &cfg.LeakMix, &cfg.WER,
		&cfg.Detector.TPR, &cfg.Detector.FPR, &cfg.MinShotSeconds, &cfg.MaxShotSeconds,
	} {
		*dst = readF64(p)
	}
	cfg.MaxKeyframesPerShot = int(p.Varint())
	cfg.Channel = p.String()
	cfg.StartDate = time.Unix(0, p.Varint()).UTC()
	return cfg
}

func writeCollection(b []byte, coll *collection.Collection) []byte {
	b = binary.AppendUvarint(b, uint64(coll.NumVideos()))
	coll.Videos(func(v *collection.Video) bool {
		b = binfmt.AppendString(b, string(v.ID))
		b = binfmt.AppendString(b, v.Title)
		b = binfmt.AppendString(b, v.Channel)
		b = binary.AppendVarint(b, v.Broadcast.UnixNano())
		b = binary.AppendVarint(b, int64(v.Duration))
		return true
	})
	b = binary.AppendUvarint(b, uint64(coll.NumStories()))
	coll.Stories(func(st *collection.Story) bool {
		b = binfmt.AppendString(b, string(st.ID))
		b = binfmt.AppendString(b, string(st.VideoID))
		b = binary.AppendVarint(b, int64(st.Index))
		b = binfmt.AppendString(b, st.Title)
		b = binary.AppendUvarint(b, uint64(st.Category))
		b = binary.AppendVarint(b, int64(st.TopicID))
		return true
	})
	b = binary.AppendUvarint(b, uint64(coll.NumShots()))
	coll.Shots(func(sh *collection.Shot) bool {
		b = binfmt.AppendString(b, string(sh.ID))
		b = binfmt.AppendString(b, string(sh.VideoID))
		b = binfmt.AppendString(b, string(sh.StoryID))
		b = binary.AppendVarint(b, int64(sh.Index))
		b = binary.AppendUvarint(b, uint64(sh.Kind))
		b = binary.AppendVarint(b, int64(sh.Start))
		b = binary.AppendVarint(b, int64(sh.Duration))
		b = binfmt.AppendString(b, sh.Transcript)
		b = binary.AppendUvarint(b, uint64(len(sh.Keyframes)))
		for _, kf := range sh.Keyframes {
			b = binary.AppendVarint(b, int64(kf.Offset))
		}
		b = binary.AppendUvarint(b, uint64(len(sh.Concepts)))
		for _, cs := range sh.Concepts {
			b = binfmt.AppendString(b, string(cs.Concept))
			b = appendF64(b, cs.Confidence)
		}
		b = binary.AppendUvarint(b, uint64(len(sh.TrueConcepts)))
		for _, c := range sh.TrueConcepts {
			b = binfmt.AppendString(b, string(c))
		}
		return true
	})
	return b
}

// readCollection decodes the collection section. The minimum element
// sizes passed to Count are one byte per field.
func readCollection(p *binfmt.Reader) *collection.Collection {
	coll := collection.New()
	for range p.Count(p.Uvarint(), 5) {
		p.Fail(coll.AddVideo(&collection.Video{
			ID:        collection.VideoID(p.String()),
			Title:     p.String(),
			Channel:   p.String(),
			Broadcast: time.Unix(0, p.Varint()).UTC(),
			Duration:  time.Duration(p.Varint()),
		}))
	}
	for range p.Count(p.Uvarint(), 6) {
		p.Fail(coll.AddStory(&collection.Story{
			ID:       collection.StoryID(p.String()),
			VideoID:  collection.VideoID(p.String()),
			Index:    int(p.Varint()),
			Title:    p.String(),
			Category: collection.Category(p.Uvarint()),
			TopicID:  int(p.Varint()),
		}))
	}
	for range p.Count(p.Uvarint(), 11) {
		sh := &collection.Shot{
			ID:         collection.ShotID(p.String()),
			VideoID:    collection.VideoID(p.String()),
			StoryID:    collection.StoryID(p.String()),
			Index:      int(p.Varint()),
			Kind:       collection.ShotKind(p.Uvarint()),
			Start:      time.Duration(p.Varint()),
			Duration:   time.Duration(p.Varint()),
			Transcript: p.String(),
		}
		for range p.Count(p.Uvarint(), 1) {
			sh.Keyframes = append(sh.Keyframes, collection.Keyframe{
				ShotID: sh.ID, Offset: time.Duration(p.Varint()),
			})
		}
		for range p.Count(p.Uvarint(), 2) {
			sh.Concepts = append(sh.Concepts, collection.ConceptScore{
				Concept: collection.Concept(p.String()), Confidence: readF64(p),
			})
		}
		for range p.Count(p.Uvarint(), 1) {
			sh.TrueConcepts = append(sh.TrueConcepts, collection.Concept(p.String()))
		}
		p.Fail(coll.AddShot(sh))
	}
	return coll
}

func writeTruth(b []byte, truth *synth.GroundTruth) []byte {
	b = binary.AppendUvarint(b, uint64(len(truth.Topics)))
	for _, t := range truth.Topics {
		b = binary.AppendVarint(b, int64(t.ID))
		b = binary.AppendUvarint(b, uint64(t.Category))
		b = binary.AppendUvarint(b, uint64(len(t.Terms)))
		for _, term := range t.Terms {
			b = binfmt.AppendString(b, term)
		}
		b = binary.AppendUvarint(b, uint64(len(t.Concepts)))
		for _, c := range t.Concepts {
			b = binfmt.AppendString(b, string(c))
		}
		b = appendF64(b, t.Popularity)
	}
	b = binary.AppendUvarint(b, uint64(len(truth.SearchTopics)))
	for _, st := range truth.SearchTopics {
		b = binary.AppendVarint(b, int64(st.ID))
		b = binary.AppendVarint(b, int64(st.TopicID))
		b = binfmt.AppendString(b, st.Query)
		b = binfmt.AppendString(b, st.Verbose)
		b = binary.AppendUvarint(b, uint64(st.Category))
	}
	// Qrels in sorted order for deterministic bytes.
	topicIDs := make([]int, 0, len(truth.Qrels))
	for id := range truth.Qrels {
		topicIDs = append(topicIDs, id)
	}
	sort.Ints(topicIDs)
	b = binary.AppendUvarint(b, uint64(len(topicIDs)))
	for _, tid := range topicIDs {
		b = binary.AppendVarint(b, int64(tid))
		m := truth.Qrels[tid]
		ids := make([]string, 0, len(m))
		for sid := range m {
			ids = append(ids, string(sid))
		}
		sort.Strings(ids)
		b = binary.AppendUvarint(b, uint64(len(ids)))
		for _, sid := range ids {
			b = binfmt.AppendString(b, sid)
			b = binary.AppendVarint(b, int64(m[collection.ShotID(sid)]))
		}
	}
	// Clean transcripts, sorted by shot ID.
	ids := make([]string, 0, len(truth.CleanTranscript))
	for sid := range truth.CleanTranscript {
		ids = append(ids, string(sid))
	}
	sort.Strings(ids)
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, sid := range ids {
		b = binfmt.AppendString(b, sid)
		b = binfmt.AppendString(b, truth.CleanTranscript[collection.ShotID(sid)])
	}
	return b
}

func readTruth(p *binfmt.Reader, coll *collection.Collection) *synth.GroundTruth {
	truth := &synth.GroundTruth{
		Qrels:           make(synth.Qrels),
		StoryTopic:      make(map[collection.StoryID]int),
		CleanTranscript: make(map[collection.ShotID]string),
	}
	for range p.Count(p.Uvarint(), 5) {
		t := &synth.Topic{ID: int(p.Varint()), Category: collection.Category(p.Uvarint())}
		for range p.Count(p.Uvarint(), 1) {
			t.Terms = append(t.Terms, p.String())
		}
		for range p.Count(p.Uvarint(), 1) {
			t.Concepts = append(t.Concepts, collection.Concept(p.String()))
		}
		t.Popularity = readF64(p)
		truth.Topics = append(truth.Topics, t)
	}
	for range p.Count(p.Uvarint(), 5) {
		truth.SearchTopics = append(truth.SearchTopics, &synth.SearchTopic{
			ID:       int(p.Varint()),
			TopicID:  int(p.Varint()),
			Query:    p.String(),
			Verbose:  p.String(),
			Category: collection.Category(p.Uvarint()),
		})
	}
	for range p.Count(p.Uvarint(), 2) {
		tid := int(p.Varint())
		n := p.Count(p.Uvarint(), 2)
		m := make(map[collection.ShotID]int, n)
		for range n {
			sid := collection.ShotID(p.String())
			m[sid] = int(p.Varint())
		}
		truth.Qrels[tid] = m
	}
	for range p.Count(p.Uvarint(), 2) {
		sid := collection.ShotID(p.String())
		truth.CleanTranscript[sid] = p.String()
	}
	// StoryTopic is derivable from the stories.
	coll.Stories(func(st *collection.Story) bool {
		truth.StoryTopic[st.ID] = st.TopicID
		return true
	})
	return truth
}
