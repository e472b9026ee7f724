package core

import (
	"context"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/distrib"
	"repro/internal/distrib/chaostest"
	"repro/internal/profile"
	"repro/internal/search"
	"repro/internal/synth"
)

// TestShotTableContract pins the dense shot table against the string
// lookups it replaced. A session whose profile reorders hits must
// return the pages, and see the shots, that a reference rescore over
// Collection.StoryOfShot computes from the unadapted ranking — on a
// 1-segment system, a 3-segment system and a 2-backend cluster — and
// every returned Hit.Doc must resolve to its Hit.ID in the table.
func TestShotTableContract(t *testing.T) {
	arch, err := synth.Generate(synth.TinyConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	coll := arch.Collection
	cfg := Config{UseProfile: true, CacheSize: 16}
	ref, err := NewSystemFromCollection(coll, Config{})
	if err != nil {
		t.Fatal(err)
	}

	sh, err := BuildShardedIndex(coll, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for ord := 0; ord < sh.NumSegments(); ord++ {
		srv, err := distrib.NewSegmentServer(distrib.ServerConfig{Sharded: sh, Hosted: []int{ord}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(chaostest.NewInjector(srv.Handler()))
		t.Cleanup(ts.Close)
		addrs = append(addrs, ts.URL)
	}
	cluster, err := distrib.Connect(context.Background(), addrs, distrib.WithClock(chaostest.NewFakeClock()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)

	three := cfg
	three.Segments = 3
	systems := []struct {
		name  string
		build func() (*System, error)
	}{
		{"1-segment", func() (*System, error) { return NewSystemFromCollection(coll, cfg) }},
		{"3-segment", func() (*System, error) { return NewSystemFromCollection(coll, three) }},
		{"2-backend cluster", func() (*System, error) { return NewSystem(cluster.NewEngine(nil, 2), coll, cfg) }},
	}
	topics := arch.Truth.SearchTopics[:4]
	for _, tc := range systems {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			user := profile.New("u").SetInterest(topics[0].Category, 1.0)
			sess := sys.NewSession("u", user)
			seen := map[string]bool{}
			reordered := false
			// Each query twice: the second answer comes from the cache.
			for _, topic := range append(topics, topics...) {
				got, err := sess.Query(topic.Query)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := ref.SearchOnce(topic.Query)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceRescore(coll, raw, sys.Config().ProfileAlpha, user)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%q: rescored page diverged from the StoryOfShot reference\n got %v\nwant %v",
						topic.Query, got.IDs(), want.IDs())
				}
				if !slices.Equal(got.IDs(), raw.IDs()) {
					reordered = true
				}
				for _, h := range got.Hits {
					if e := sys.shot(h.Doc); e == nil || e.id != h.ID {
						t.Fatalf("hit %s: Doc %d does not resolve to its ID in the shot table", h.ID, h.Doc)
					}
					seen[h.ID] = true
				}
			}
			if !reordered {
				t.Fatal("the profile never reordered a page; the test proves nothing")
			}
			if sess.SeenShots() != len(seen) {
				t.Fatalf("SeenShots = %d, want %d", sess.SeenShots(), len(seen))
			}
			for id := range seen {
				if !sess.HasSeen(id) {
					t.Fatalf("HasSeen(%s) = false for a returned shot", id)
				}
			}
		})
	}
}

// referenceRescore is the profile rescore as it read before the shot
// table: categories by Collection.StoryOfShot, a fresh copy, and a full
// sort in canonical order.
func referenceRescore(coll *collection.Collection, raw search.Results, alpha float64, user *profile.Profile) search.Results {
	out := raw
	out.Hits = slices.Clone(raw.Hits)
	if len(out.Hits) == 0 {
		return out
	}
	scale := alpha * out.Hits[0].Score
	for i := range out.Hits {
		boost := 0.0
		if st := coll.StoryOfShot(collection.ShotID(out.Hits[i].ID)); st != nil {
			boost = user.Boost(st.Category)
		}
		out.Hits[i].Score += scale * boost
	}
	slices.SortFunc(out.Hits, func(a, b search.Hit) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return strings.Compare(a.ID, b.ID)
	})
	return out
}

// TestRestoreKeepsUnknownSeenShots: a snapshot whose seen set names a
// shot this system's collection does not know (say, one written before
// a re-index) restores, counts the shot as seen, and re-encodes
// byte-identically.
func TestRestoreKeepsUnknownSeenShots(t *testing.T) {
	arch, sys := fixture(t, Config{UseProfile: true})
	sess := sys.NewSession("s", nil)
	if _, err := sess.Query(arch.Truth.SearchTopics[0].Query); err != nil {
		t.Fatal(err)
	}
	snap, err := sess.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Seen = append(snap.Seen, "zz-retired-shot")
	data := snap.encode()
	restored, err := sys.RestoreSession(data)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.HasSeen("zz-retired-shot") || restored.SeenShots() != len(snap.Seen) {
		t.Fatalf("restored seen set lost the unknown shot: HasSeen=%v SeenShots=%d want %d",
			restored.HasSeen("zz-retired-shot"), restored.SeenShots(), len(snap.Seen))
	}
	again, err := restored.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatal("restored session re-encoded different bytes")
	}
}
