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
	1: {"dc0c06baa061b9f2909132c5c4a26338b3b7d7b343bff43ebf1d0e50fbdae13f"},
	2: {
		"7b0b866b59f8e382f96069a2d7b68150b6cb2572c5e37db4bf7c1c94e9a63368",
		"d3aa3d1093ba1f7827c6f50cdbaa5351012754bf75534f6888d96fbf93e82272",
	},
	3: {
		"91e4376005bfd0cc678ce054f968e756a4d4e20f65efb59244617e37a4c27417",
		"49586f66ab7944603a6027351add559ac610a605bff51d5871a1d06b390e1e57",
		"ad1e46d4358494082365ed4e27c9ae4649c1177cbf9c0fb66bff530e79f0e3e6",
	},
}

// goldenIndexSingle is the SHA-256 of BuildIndex's WriteTo bytes over
// the same archive; it equals the one-segment sharded digest.
const goldenIndexSingle = "dc0c06baa061b9f2909132c5c4a26338b3b7d7b343bff43ebf1d0e50fbdae13f"

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
