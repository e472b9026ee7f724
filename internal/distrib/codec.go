package distrib

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/binfmt"
)

// Binary codec for the /rpc/v1/search hot path.
//
// JSON framing is the right default for the RPC surface — debuggable
// with curl, schema-evolvable, and float64-exact — but on the scatter
// path every query pays it per segment: the merge tier encodes one
// request and decodes one response per backend hop, and the segment
// server does the mirror image. The binary codec replaces exactly
// those two bodies with a length-prefixed frame that costs a fraction
// of the bytes and none of the reflection, negotiated per request via
// Content-Type with JSON kept as the universal fallback (stats,
// health, metrics, traces and every error envelope stay JSON).
//
// Frame layout:
//
//	magic    4 bytes  "IVRB"
//	version  1 byte   (1)
//	msgType  1 byte   (1 = search request, 2 = search response)
//	length   4 bytes  little-endian payload byte count (exact)
//	payload  N bytes
//
// Payload fields are varint-coded integers (signed zig-zag where the
// value can be negative, e.g. K = -1), length-prefixed strings, and
// fixed 8-byte little-endian IEEE-754 floats. Floats cross the wire
// as raw math.Float64bits, so scores and statistics stay bit-exact —
// the same guarantee shortest-form JSON formatting gives the fallback
// path, without the format/parse round trip.
//
// Decoders read through binfmt.Reader, like every other binary format
// in the repository: every length is validated against the bytes
// actually present, term and hit counts are capped and checked against
// the bytes left before any allocation sizes off them, and a frame with
// trailing bytes is rejected, never silently accepted.
const ContentTypeBinary = "application/x-ivr-search"

const (
	binVersion       = 1
	binMsgSearchReq  = 1
	binMsgSearchResp = 2
	// binHeaderLen is the fixed frame prefix: magic, version, msgType,
	// payload length.
	binHeaderLen = 10
)

var binMagic = [4]byte{'I', 'V', 'R', 'B'}

// Decode caps: structural limits checked before any count is trusted.
const (
	// maxWireTerms bounds term/stats list lengths; MaxSearchBody admits
	// far fewer real terms, so this only guards allocation sizing
	// against a hostile count.
	maxWireTerms = 4096
	// maxWireString bounds one term, field, scorer name, or doc ID.
	maxWireString = 1 << 16
	// Smallest encodings of one list element, which bound a declared
	// count by the bytes left: a term is an empty string and an 8-byte
	// weight; a stats entry is four one-byte varints and two 8-byte
	// floats; a hit is a one-byte doc varint, an empty ID and an 8-byte
	// score.
	minWireTerm  = 9
	minWireStats = 20
	minWireHit   = 10
)

// --- encoding ---

// beginFrame starts a frame in dst (which must be empty): header with
// a zero length to be patched by endFrame.
func beginFrame(dst []byte, msgType byte) []byte {
	dst = append(dst, binMagic[:]...)
	return append(dst, binVersion, msgType, 0, 0, 0, 0)
}

// endFrame patches the payload length now that it is known.
func endFrame(dst []byte) []byte {
	binary.LittleEndian.PutUint32(dst[binHeaderLen-4:binHeaderLen], uint32(len(dst)-binHeaderLen))
	return dst
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// appendSearchRequest encodes one search request frame into dst.
func appendSearchRequest(dst []byte, req *SearchRequest) []byte {
	dst = beginFrame(dst, binMsgSearchReq)
	dst = binary.AppendVarint(dst, int64(req.Segment))
	dst = binfmt.AppendString(dst, req.Field)
	dst = binary.AppendUvarint(dst, uint64(len(req.Terms)))
	for i := range req.Terms {
		dst = binfmt.AppendString(dst, req.Terms[i].Term)
		dst = appendF64(dst, req.Terms[i].Weight)
	}
	dst = binary.AppendUvarint(dst, uint64(len(req.Stats)))
	for i := range req.Stats {
		st := &req.Stats[i]
		dst = binary.AppendVarint(dst, int64(st.N))
		dst = appendF64(dst, st.AvgDocLen)
		dst = binary.AppendVarint(dst, st.TotalLen)
		dst = binary.AppendVarint(dst, int64(st.DF))
		dst = binary.AppendVarint(dst, st.CF)
		dst = appendF64(dst, st.Weight)
	}
	dst = binfmt.AppendString(dst, req.Scorer.Name)
	dst = appendF64(dst, req.Scorer.K1)
	dst = appendF64(dst, req.Scorer.B)
	dst = appendF64(dst, req.Scorer.Mu)
	dst = binary.AppendVarint(dst, int64(req.K))
	return endFrame(dst)
}

// appendSearchResponse encodes one search response frame into dst.
func appendSearchResponse(dst []byte, segment int, hits []WireHit, candidates int) []byte {
	dst = beginFrame(dst, binMsgSearchResp)
	dst = binary.AppendVarint(dst, int64(segment))
	dst = binary.AppendVarint(dst, int64(candidates))
	dst = binary.AppendUvarint(dst, uint64(len(hits)))
	for i := range hits {
		dst = binary.AppendUvarint(dst, uint64(hits[i].Doc))
		dst = binfmt.AppendString(dst, hits[i].ID)
		dst = appendF64(dst, hits[i].Score)
	}
	return endFrame(dst)
}

// --- decoding ---

// wireString reads one length-prefixed string capped at maxWireString.
func wireString(r *binfmt.Reader) string {
	s := r.String()
	if len(s) > maxWireString {
		r.Fail(fmt.Errorf("string length %d exceeds %d", len(s), maxWireString))
	}
	return s
}

// wireCount reads a list length, capped at limit and at what the bytes
// left can hold.
func wireCount(r *binfmt.Reader, what string, limit, minElem int) int {
	n := r.Uvarint()
	if n > uint64(limit) {
		r.Fail(fmt.Errorf("%s count %d exceeds %d", what, n, limit))
	}
	return r.Count(n, minElem)
}

// openFrame validates the header and returns the payload. The declared
// length must match the frame exactly — a concatenated or truncated
// frame is an error, not a prefix decode.
func openFrame(frame []byte, msgType byte) ([]byte, error) {
	if len(frame) < binHeaderLen {
		return nil, fmt.Errorf("frame shorter than %d-byte header", binHeaderLen)
	}
	if !bytes.Equal(frame[:4], binMagic[:]) {
		return nil, fmt.Errorf("bad magic %q", frame[:4])
	}
	if frame[4] != binVersion {
		return nil, fmt.Errorf("unsupported codec version %d", frame[4])
	}
	if frame[5] != msgType {
		return nil, fmt.Errorf("message type %d, want %d", frame[5], msgType)
	}
	if n := binary.LittleEndian.Uint32(frame[6:binHeaderLen]); int64(n) != int64(len(frame)-binHeaderLen) {
		return nil, fmt.Errorf("declared payload %d bytes, frame carries %d", n, len(frame)-binHeaderLen)
	}
	return frame[binHeaderLen:], nil
}

// decodeSearchRequest decodes a request frame into req, reusing the
// Terms/Stats capacity req already carries (the server pools request
// structs across queries).
func decodeSearchRequest(frame []byte, req *SearchRequest) error {
	payload, err := openFrame(frame, binMsgSearchReq)
	if err != nil {
		return err
	}
	r := binfmt.NewReader(payload)
	req.Segment = int(r.Varint())
	req.Field = wireString(&r)
	req.Terms = req.Terms[:0]
	for range wireCount(&r, "term", maxWireTerms, minWireTerm) {
		req.Terms = append(req.Terms, WireTerm{Term: wireString(&r), Weight: r.Float64LE()})
	}
	req.Stats = req.Stats[:0]
	for range wireCount(&r, "stats", maxWireTerms, minWireStats) {
		req.Stats = append(req.Stats, WireTermStats{
			N:         int(r.Varint()),
			AvgDocLen: r.Float64LE(),
			TotalLen:  r.Varint(),
			DF:        int(r.Varint()),
			CF:        r.Varint(),
			Weight:    r.Float64LE(),
		})
	}
	req.Scorer.Name = wireString(&r)
	req.Scorer.K1 = r.Float64LE()
	req.Scorer.B = r.Float64LE()
	req.Scorer.Mu = r.Float64LE()
	req.K = int(r.Varint())
	return r.Done()
}

// decodeSearchResponse decodes a response frame into out. out.Segment
// and out.Candidates must point at storage (the binary codec has no
// optional keys — presence is structural); out.Hits' capacity is
// reused, so callers can feed a pooled slice.
func decodeSearchResponse(frame []byte, out *SearchResponse) error {
	payload, err := openFrame(frame, binMsgSearchResp)
	if err != nil {
		return err
	}
	r := binfmt.NewReader(payload)
	*out.Segment = int(r.Varint())
	*out.Candidates = int(r.Varint())
	out.Hits = out.Hits[:0]
	for range r.Count(r.Uvarint(), minWireHit) {
		doc := r.Uvarint()
		if doc > math.MaxUint32 {
			r.Fail(fmt.Errorf("doc id %d exceeds uint32", doc))
		}
		out.Hits = append(out.Hits, WireHit{Doc: uint32(doc), ID: wireString(&r), Score: r.Float64LE()})
	}
	return r.Done()
}

// --- pooled scratch ---

// maxPooledBuf caps the backing capacity a recycled buffer may retain:
// a pathological response should not pin megabytes in the pool.
const maxPooledBuf = 1 << 20

// bufPool recycles frame encode/decode byte buffers. One scatter round
// borrows a request buffer per hop on the client, and a request-read
// plus response-encode buffer per query on the server — steady state
// allocates nothing for framing.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func getBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// readerPool recycles the bytes.Reader each client hop wraps its
// request body in.
var readerPool = sync.Pool{New: func() any { return bytes.NewReader(nil) }}

// wireHitPool recycles the hit slices binary response decoding fills;
// the merge tier returns them once hits are converted to search.Hits.
var wireHitPool = sync.Pool{New: func() any {
	h := make([]WireHit, 0, 64)
	return &h
}}

func getWireHits() []WireHit {
	return (*wireHitPool.Get().(*[]WireHit))[:0]
}

// recycleWireHits returns a decoded hit slice to the pool. Safe on
// JSON-decoded (non-pooled) slices too — any capacity re-enters the
// pool. Slices grown by an unbounded (k <= 0) candidate dump are
// dropped instead of pinning their worst case forever.
func recycleWireHits(hits []WireHit) {
	if cap(hits) == 0 || cap(hits) > 1<<15 {
		return
	}
	h := hits[:0]
	wireHitPool.Put(&h)
}
