package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"
)

// sealIndex wraps payload in the index container with a valid CRC, so
// hostile payloads reach the decoder instead of the checksum check.
func sealIndex(payload []byte) []byte {
	raw := append([]byte(nil), magic[:]...)
	raw = append(raw, payload...)
	return binary.BigEndian.AppendUint32(raw, crc32.ChecksumIEEE(payload))
}

// TestReadRejectsHugeDocCount: a CRC-valid index claiming 2^62
// documents is a typed ErrBadFormat, not a makeslice panic or an
// allocation sized from the claim.
func TestReadRejectsHugeDocCount(t *testing.T) {
	payload := binary.AppendUvarint(nil, 1<<62)
	payload = append(payload, "d0"...)
	var err error
	func() {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("Read panicked: %v", p)
			}
		}()
		_, err = Read(bytes.NewReader(sealIndex(payload)))
	}()
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
}

// FuzzRead feeds payloads, sealed with a valid CRC, to Read. The
// invariant: an index or an ErrBadFormat, never a panic, and no
// allocation sized from a count the payload merely claims.
func FuzzRead(f *testing.F) {
	var golden bytes.Buffer
	if _, err := buildSmall(f).WriteTo(&golden); err != nil {
		f.Fatal(err)
	}
	f.Add(golden.Bytes()[len(magic) : golden.Len()-4])
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		raw := sealIndex(payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := Read(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, ErrBadFormat) {
			t.Fatalf("untyped error: %v", err)
		}
		if err == nil {
			// A decoded index must be safe to query: walk every posting.
			for f := Field(0); f < numFields; f++ {
				ix.EachTerm(f, func(term string, _ int, _ int64) bool {
					for it := ix.Postings(f, term); it.Next(); {
					}
					return true
				})
			}
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64*uint64(len(raw))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(raw), n)
		}
	})
}

// TestReadCorruptionFuzz flips random bits across serialised indexes
// and requires Read to fail cleanly — an error, never a panic, and
// never silent acceptance of payload damage.
func TestReadCorruptionFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	ix, _ := randomIndex(r, 40, 30)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for trial := 0; trial < 200; trial++ {
		corrupt := make([]byte, len(raw))
		copy(corrupt, raw)
		pos := r.Intn(len(corrupt))
		corrupt[pos] ^= byte(1 << r.Intn(8))
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("trial %d: Read panicked on corruption at %d: %v", trial, pos, p)
				}
			}()
			_, err := Read(bytes.NewReader(corrupt))
			if pos >= len(magic) && pos < len(raw)-4 && err == nil {
				t.Fatalf("trial %d: payload corruption at %d accepted", trial, pos)
			}
		}()
	}
}

// TestReadRandomBytesFuzz feeds entirely random byte strings with a
// valid magic prefix: decoding must never panic.
func TestReadRandomBytesFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 12 + r.Intn(300)
		data := make([]byte, n)
		r.Read(data)
		copy(data, magic[:])
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("trial %d: Read panicked on random bytes: %v", trial, p)
				}
			}()
			// Random bytes virtually never carry a valid checksum, and
			// even if they did, structural validation must hold.
			_, _ = Read(bytes.NewReader(data))
		}()
	}
}

// TestPostingsIteratorTruncatedBuffer exercises the iterator's
// defensive paths directly against malformed block streams.
func TestPostingsIteratorTruncatedBuffer(t *testing.T) {
	cases := []struct {
		name string
		buf  []byte
		rem  int
	}{
		{"header ends mid-varint", []byte{0x80}, 3},
		{"header truncated after n", []byte{0x01}, 1},
		{"header truncated after maxTF", []byte{0x01, 0x02}, 1},
		{"header truncated after docBytes", []byte{0x01, 0x02, 0x01}, 1},
		// Header complete but docBytes+tfBytes overrun the buffer.
		{"runs overrun buffer", []byte{0x01, 0x02, 0x05, 0x05, 0xAA}, 1},
		// n claims more postings than the term has left.
		{"block count exceeds remaining", []byte{0x7F, 0x02, 0x01, 0x01, 0x01, 0x01}, 2},
		// Zero-posting block is structurally invalid.
		{"empty block", []byte{0x00, 0x00, 0x00, 0x00}, 1},
		// n claims a posting count larger than BlockSize.
		{"oversized block", append([]byte{0x81, 0x02, 0x00, 0x00, 0x00}, make([]byte, 600)...), 300},
		// Doc run truncated mid-varint (docBytes says 1 byte, but the
		// byte has its continuation bit set).
		{"doc run ends mid-varint", []byte{0x01, 0x02, 0x01, 0x01, 0x80, 0x01}, 1},
		// Valid doc run, tf run truncated mid-varint.
		{"tf run ends mid-varint", []byte{0x01, 0x02, 0x01, 0x01, 0x03, 0x80}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			it := &PostingsIterator{buf: tc.buf, remaining: tc.rem}
			if it.Next() {
				t.Error("malformed block stream yielded a posting")
			}
			if it.Next() {
				t.Error("iterator did not stay exhausted")
			}
			if n, _, ok := it.BlockBound(); ok || n != 0 {
				t.Error("exhausted iterator still reports a block")
			}
		})
	}
}

// TestPostingsIteratorBlockAPI pins the split-run contract the scoring
// kernel relies on: BlockBound previews without consuming, doc runs
// decode independently of tf runs, and an undecoded tf run is silently
// dropped when the next block opens (that skip is the entire point of
// the layout).
func TestPostingsIteratorBlockAPI(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	ix, _ := randomIndex(r, 400, 6) // enough docs to force multi-block terms
	ix.EachTerm(FieldText, func(term string, _ int, _ int64) bool {
		// Reference decode via Next.
		var wantDocs []DocID
		var wantTFs []uint32
		ref := ix.Postings(FieldText, term)
		var refMax uint32
		for ref.Next() {
			wantDocs = append(wantDocs, ref.Doc())
			wantTFs = append(wantTFs, uint32(ref.TF()))
			if uint32(ref.TF()) > refMax {
				refMax = uint32(ref.TF())
			}
		}
		if got := ix.MaxTF(FieldText, term); got != refMax {
			t.Fatalf("term %q: MaxTF = %d, want %d", term, got, refMax)
		}
		// Block decode, with and without tf runs.
		var docBuf [BlockSize]DocID
		var tfBuf [BlockSize]uint32
		it := ix.Postings(FieldText, term)
		if it.MaxTF() != refMax {
			t.Fatalf("term %q: iterator MaxTF = %d, want %d", term, it.MaxTF(), refMax)
		}
		pos := 0
		block := 0
		for {
			n, blockMax, ok := it.BlockBound()
			if !ok {
				break
			}
			if blockMax > refMax {
				t.Fatalf("term %q: block maxTF %d exceeds term max %d", term, blockMax, refMax)
			}
			if got := it.DecodeBlockDocs(docBuf[:]); got != n {
				t.Fatalf("term %q: DecodeBlockDocs = %d, want %d", term, got, n)
			}
			scoreBlock := block%2 == 0
			if scoreBlock {
				if got := it.DecodeBlockTFs(tfBuf[:]); got != n {
					t.Fatalf("term %q: DecodeBlockTFs = %d, want %d", term, got, n)
				}
			}
			for j := 0; j < n; j++ {
				if docBuf[j] != wantDocs[pos+j] {
					t.Fatalf("term %q: block doc[%d] = %d, want %d", term, pos+j, docBuf[j], wantDocs[pos+j])
				}
				if scoreBlock {
					if tfBuf[j] != wantTFs[pos+j] {
						t.Fatalf("term %q: block tf[%d] = %d, want %d", term, pos+j, tfBuf[j], wantTFs[pos+j])
					}
					if tfBuf[j] > blockMax {
						t.Fatalf("term %q: tf %d exceeds block max %d", term, tfBuf[j], blockMax)
					}
				}
			}
			pos += n
			block++
		}
		if pos != len(wantDocs) {
			t.Fatalf("term %q: block decode saw %d postings, want %d", term, pos, len(wantDocs))
		}
		return true
	})
}
