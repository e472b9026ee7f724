package distrib

import (
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"
)

// fixFrameLength patches an IVRB header's payload length to match the
// frame, so mutated payloads reach the field decoder instead of the
// exact-length check.
func fixFrameLength(frame []byte) {
	if len(frame) >= binHeaderLen {
		binary.LittleEndian.PutUint32(frame[6:binHeaderLen], uint32(len(frame)-binHeaderLen))
	}
}

// fuzzFrames seeds f with a golden frame and runs decode over every
// input with its length patched. The invariant: a value or an error,
// never a panic, and no allocation sized from a count the frame merely
// claims.
func fuzzFrames(f *testing.F, golden string, decode func([]byte) error) {
	seed, err := hex.DecodeString(golden)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:binHeaderLen])
	f.Fuzz(func(t *testing.T, frame []byte) {
		fixFrameLength(frame)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = decode(frame)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64*uint64(len(frame))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(frame), n)
		}
	})
}

func FuzzDecodeSearchRequest(f *testing.F) {
	fuzzFrames(f, goldenRequestFrame, func(frame []byte) error {
		return decodeSearchRequest(frame, &SearchRequest{})
	})
}

func FuzzDecodeSearchResponse(f *testing.F) {
	fuzzFrames(f, goldenResponseFrame, func(frame []byte) error {
		var seg, cand int
		return decodeSearchResponse(frame, &SearchResponse{Segment: &seg, Candidates: &cand})
	})
}
