package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/collection"
	"repro/internal/index"
	"repro/internal/synth"
)

// goldenIndexSegments pins the whole collection → analyser → index
// pipeline byte for byte: the SHA-256 of each segment's WriteTo bytes
// for BuildShardedIndex over the tiny synthetic archive at seed 2008,
// keyed by segment count. TestGoldenIndexBytes in package index pins
// only the codec over hand-built documents; this pins tokenisation,
// stopping, stemming, concept weighting and the round-robin split too.
var goldenIndexSegments = map[int][]string{
	1: {"774fff17bc85f5a2e70dedaf202aa379d11c770ee136210fc68a0a5165393a10"},
	2: {
		"60ad6dcc7912f6e179176491599771e93e0f77823f21b8697c40544fc1a8dbb4",
		"3e1ae5056c12eb7d69f27bea6e9ad354ddf424449b23fd85bf3eeb6d4e8929dd",
	},
	3: {
		"b41776b35e23eeb459965b47f98b118af9946674c185b5e3f0a9fbfd1debf5b8",
		"dd19c67445508f815fe393f78fd9ce6cfec95644f50ef8b794e26d77d0dc7309",
		"93f078a5e6d5180bdfd2c72f279ceab446f77b475edde85c4036ed60b58dd3db",
	},
}

// goldenIndexSingle is the SHA-256 of BuildIndex's WriteTo bytes over
// the same archive; it equals the one-segment sharded digest.
const goldenIndexSingle = "774fff17bc85f5a2e70dedaf202aa379d11c770ee136210fc68a0a5165393a10"

func goldenCollection(t testing.TB) *collection.Collection {
	t.Helper()
	arch, err := synth.Generate(synth.TinyConfig(), 2008)
	if err != nil {
		t.Fatal(err)
	}
	return arch.Collection
}

func indexDigest(t testing.TB, ix *index.Index) string {
	t.Helper()
	h := sha256.New()
	if _, err := ix.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenBuildShardedIndex(t *testing.T) {
	coll := goldenCollection(t)
	for n, want := range goldenIndexSegments {
		sh, err := BuildShardedIndex(coll, nil, n)
		if err != nil {
			t.Fatal(err)
		}
		if sh.NumSegments() != n {
			t.Fatalf("n=%d: NumSegments = %d", n, sh.NumSegments())
		}
		for i := 0; i < n; i++ {
			if got := indexDigest(t, sh.Segment(i)); got != want[i] {
				t.Errorf("n=%d segment %d bytes moved:\n got %s\nwant %s", n, i, got, want[i])
			}
		}
	}
}

func TestGoldenBuildIndex(t *testing.T) {
	ix, err := BuildIndex(goldenCollection(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := indexDigest(t, ix); got != goldenIndexSingle {
		t.Fatalf("BuildIndex bytes moved:\n got %s\nwant %s", got, goldenIndexSingle)
	}
}
