package distrib

import (
	"encoding/hex"
	"math"
	"testing"
)

// Golden IVRB v1 frames: one search request (codecRequest: negative K,
// an empty term, floats a lossy format would mangle) and one search
// response, pinned byte for byte.
const (
	goldenRequestFrame  = "4956524201018b0000000604746578740304676f616c000000000000f03f077374616469756d555555555555d53f00000000000000000003782549922449921c40c8062846000000000000f03f782549922449921c40c8060000555555555555d53f782549922449921c40c8060202000000000000000004626d3235343333333333f33f000000000000e83f000000000000000001"
	goldenResponseFrame = "495652420102210000000af601020000010000000000f03fffffffff0f0573303034328f6cdcbc7b751e40"
)

func goldenHits() []WireHit {
	return []WireHit{
		{Doc: 0, ID: "", Score: math.Nextafter(1, 2)},
		{Doc: math.MaxUint32, ID: "s0042", Score: 7.614729834512345},
	}
}

func TestGoldenFrames(t *testing.T) {
	req := codecRequest()
	if got := hex.EncodeToString(appendSearchRequest(nil, &req)); got != goldenRequestFrame {
		t.Errorf("IVRB request frame moved:\n got %s\nwant %s", got, goldenRequestFrame)
	}
	if got := hex.EncodeToString(appendSearchResponse(nil, 5, goldenHits(), 123)); got != goldenResponseFrame {
		t.Errorf("IVRB response frame moved:\n got %s\nwant %s", got, goldenResponseFrame)
	}
}
