package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/binfmt"
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

// dictPayload is an index payload holding one document and, in the
// text field, the given terms in the given order, each with the single
// posting (doc 0, tf 1).
func dictPayload(terms ...string) []byte {
	block := []byte{1, 1, 1, 0, 1} // n, docBytes, tfBytes, doc 0, tf 1
	p := binary.AppendUvarint(nil, 1)
	p = binfmt.AppendString(p, "d0")
	p = append(p, 1, byte(len(terms)), byte(len(terms)), byte(len(terms))) // docLens, totalLen, numTerms
	var blob []byte
	for _, term := range terms {
		p = binfmt.AppendString(p, term)
		p = append(p, 1, 1, byte(len(block))) // df, cf, postingsLen
		blob = append(blob, block...)
	}
	p = binfmt.AppendBytes(p, blob)
	p = append(p, 1, 0, 0, 0) // concept field: docLens, totalLen, numTerms
	return binfmt.AppendBytes(p, nil)
}

// TestReadRejectsDictionaryOutOfOrder: EachTerm promises sorted order
// and NumTerms counts distinct terms, so a CRC-valid dictionary that
// repeats a term or goes backwards is ErrBadFormat.
func TestReadRejectsDictionaryOutOfOrder(t *testing.T) {
	ix, err := Read(bytes.NewReader(sealIndex(dictPayload("a", "b"))))
	if err != nil {
		t.Fatalf("sorted dictionary rejected: %v", err)
	}
	if got := vocabulary(ix, FieldText); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("vocabulary = %q", got)
	}
	for _, terms := range [][]string{{"b", "b"}, {"c", "b"}, {"a", "b", "b"}} {
		if _, err := Read(bytes.NewReader(sealIndex(dictPayload(terms...)))); !errors.Is(err, ErrBadFormat) {
			t.Errorf("dictionary %q: err = %v, want ErrBadFormat", terms, err)
		}
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
			// A decoded index must be safe to query: walk every posting,
			// per posting and in bulk, over a dictionary in sorted order.
			var docs [7]DocID
			var tfs [7]uint32
			for f := Field(0); f < numFields; f++ {
				prev, seen := "", 0
				ix.EachTerm(f, func(term string, _ int, _ int64) bool {
					if seen > 0 && term <= prev {
						t.Fatalf("field %v: EachTerm visits %q after %q", f, term, prev)
					}
					prev, seen = term, seen+1
					each := 0
					for it := ix.PostingsFor(f, term); it.Next(); {
						each++
					}
					bulk := 0
					for it := ix.PostingsFor(f, term); ; {
						n := it.NextBlock(docs[:], tfs[:])
						if n == 0 {
							break
						}
						bulk += n
					}
					if bulk != each {
						t.Fatalf("field %v term %q: NextBlock decoded %d postings, Next %d", f, term, bulk, each)
					}
					return true
				})
				if seen != ix.NumTerms(f) {
					t.Fatalf("field %v: EachTerm visited %d terms, NumTerms %d", f, seen, ix.NumTerms(f))
				}
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
// defensive paths directly against malformed block streams. Headers
// are (n, docBytes, tfBytes); want is the postings decoded before the
// damage, which Next and NextBlock must both report, then stay
// exhausted.
func TestPostingsIteratorTruncatedBuffer(t *testing.T) {
	cases := []struct {
		name string
		buf  []byte
		rem  int
		want int
	}{
		{"header ends mid-varint", []byte{0x80}, 3, 0},
		{"header truncated after n", []byte{0x01}, 1, 0},
		{"header truncated after docBytes", []byte{0x01, 0x01}, 1, 0},
		// Header complete but docBytes+tfBytes overrun the buffer.
		{"runs overrun buffer", []byte{0x01, 0x05, 0x05, 0xAA}, 1, 0},
		// docBytes+tfBytes wraps uint64 to 0, so a summed bound passes.
		{"run lengths overflow", append(binary.AppendUvarint([]byte{0x01}, 1<<64-1), 0x01, 0x03, 0x01), 1, 0},
		// n claims more postings than the term has left.
		{"block count exceeds remaining", []byte{0x7F, 0x01, 0x01, 0x01, 0x01}, 2, 0},
		// Zero-posting block is structurally invalid.
		{"empty block", []byte{0x00, 0x00, 0x00}, 1, 0},
		// n claims a posting count larger than BlockSize.
		{"oversized block", append([]byte{0x81, 0x02, 0x00, 0x00}, make([]byte, 600)...), 300, 0},
		// Doc run truncated mid-varint (docBytes says 1 byte, but the
		// byte has its continuation bit set).
		{"doc run ends mid-varint", []byte{0x01, 0x01, 0x01, 0x80, 0x01}, 1, 0},
		// Valid doc run, tf run truncated mid-varint.
		{"tf run ends mid-varint", []byte{0x01, 0x01, 0x01, 0x03, 0x80}, 1, 0},
		// The same two faults at the second posting of a block: the
		// first posting is whole and is reported.
		{"doc run breaks after one posting", []byte{0x02, 0x02, 0x02, 0x03, 0x80, 0x02, 0x02}, 2, 1},
		{"tf run breaks after one posting", []byte{0x02, 0x02, 0x02, 0x03, 0x01, 0x02, 0x80}, 2, 1},
	}
	var docs [BlockSize]DocID
	var tfs [BlockSize]uint32
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			it := &PostingsIterator{buf: tc.buf, remaining: tc.rem}
			got := 0
			for it.Next() {
				got++
			}
			if got != tc.want {
				t.Errorf("Next yielded %d postings, want %d", got, tc.want)
			}
			if it.Next() {
				t.Error("iterator did not stay exhausted")
			}
			if n := it.NextBlock(docs[:], tfs[:]); n != 0 {
				t.Errorf("exhausted iterator still decodes %d postings", n)
			}
			bulk := &PostingsIterator{buf: tc.buf, remaining: tc.rem}
			if n := bulk.NextBlock(docs[:], tfs[:]); n != tc.want {
				t.Errorf("NextBlock decoded %d postings, want %d", n, tc.want)
			}
			if bulk.Next() || bulk.NextBlock(docs[:], tfs[:]) != 0 {
				t.Error("NextBlock left the iterator unexhausted")
			}
		})
	}
}

// TestPostingsIteratorBlockAPI pins NextBlock to the per-posting path:
// at buffer sizes below, at and above BlockSize (3×BlockSize spans
// several storage blocks per call), alone and interleaved with Next,
// it yields exactly the (doc, tf) sequence Next does and fills the
// buffer until the list runs out.
func TestPostingsIteratorBlockAPI(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	ix, _ := randomIndex(r, 1000, 6) // enough docs to force multi-block terms
	spanned := false
	for _, term := range vocabulary(ix, FieldText) {
		var want []posting
		for it := ix.PostingsFor(FieldText, term); it.Next(); {
			want = append(want, posting{it.Doc(), uint32(it.TF())})
		}
		spanned = spanned || len(want) > 3*BlockSize
		for _, size := range []int{1, 7, BlockSize, 3 * BlockSize} {
			docs, tfs := make([]DocID, size), make([]uint32, size)
			for _, interleave := range []bool{false, true} {
				it := ix.PostingsFor(FieldText, term)
				var got []posting
				for call := 0; ; call++ {
					if interleave && call%2 == 1 {
						if !it.Next() {
							break
						}
						got = append(got, posting{it.Doc(), uint32(it.TF())})
						continue
					}
					rem := it.Remaining()
					n := it.NextBlock(docs, tfs)
					if n != min(size, rem) {
						t.Fatalf("term %q size %d: NextBlock = %d with %d left", term, size, n, rem)
					}
					if n == 0 {
						break
					}
					for j := 0; j < n; j++ {
						got = append(got, posting{docs[j], tfs[j]})
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("term %q size %d interleave %v: block decode differs from Next", term, size, interleave)
				}
			}
		}
	}
	if !spanned {
		t.Fatal("no term spans more than 3×BlockSize postings")
	}
}
