package binfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReaderRoundTrip(t *testing.T) {
	var b []byte
	b = append(b, 7)
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendUvarint(b, math.MaxUint64)
	b = binary.AppendVarint(b, -1)
	b = binary.AppendVarint(b, math.MinInt64)
	b = AppendString(b, "")
	b = AppendString(b, "shot-1")
	b = AppendBytes(b, []byte{0, 0xff})
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(math.Nextafter(1, 2)))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(-0.5))
	b = append(b, "tail"...)

	r := NewReader(b)
	if v := r.Byte(); v != 7 {
		t.Errorf("Byte = %d", v)
	}
	for _, want := range []uint64{0, 300, math.MaxUint64} {
		if v := r.Uvarint(); v != want {
			t.Errorf("Uvarint = %d, want %d", v, want)
		}
	}
	for _, want := range []int64{-1, math.MinInt64} {
		if v := r.Varint(); v != want {
			t.Errorf("Varint = %d, want %d", v, want)
		}
	}
	if s := r.String(); s != "" {
		t.Errorf("String = %q", s)
	}
	if s := r.String(); s != "shot-1" {
		t.Errorf("String = %q", s)
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{0, 0xff}) {
		t.Errorf("Bytes = %x", v)
	}
	if v := r.Float64LE(); v != math.Nextafter(1, 2) {
		t.Errorf("Float64LE = %v", v)
	}
	if v := r.Float64BE(); v != -0.5 {
		t.Errorf("Float64BE = %v", v)
	}
	if err := r.Done(); err == nil || !strings.Contains(err.Error(), "4 trailing bytes") {
		t.Errorf("Done before the tail = %v, want trailing-bytes error", err)
	}
	r = NewReader([]byte("tail"))
	if v := r.Rest(); string(v) != "tail" {
		t.Errorf("Rest = %q", v)
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done = %v", err)
	}
}

// TestReaderErrorsStick: after the first fault every read is a zero
// value and the first error is the one reported, even if later reads
// would have succeeded on the bytes left.
func TestReaderErrorsStick(t *testing.T) {
	b := binary.AppendUvarint(nil, 5) // a length of 5 with only 3 bytes after it
	b = append(b, 1, 2, 3)
	r := NewReader(b)
	if v := r.Bytes(); v != nil {
		t.Fatalf("over-long Bytes = %x", v)
	}
	first := r.err
	if first == nil {
		t.Fatal("over-long Bytes recorded no error")
	}
	if r.Uvarint() != 0 || r.Byte() != 0 || r.String() != "" || r.Float64LE() != 0 || r.Rest() != nil {
		t.Error("a read after the fault returned data")
	}
	r.Fail(errors.New("later"))
	if r.err != first || r.Done() != first {
		t.Errorf("error after more reads = %v, want the first %v", r.err, first)
	}
}

// TestReaderRejectsHostileLengths pins the overflow cases a naive
// off+int(n) check lets through: lengths and counts at and past 2^63.
func TestReaderRejectsHostileLengths(t *testing.T) {
	for _, n := range []uint64{1 << 62, 1 << 63, math.MaxUint64} {
		r := NewReader(append(binary.AppendUvarint(nil, n), "abc"...))
		if v := r.Bytes(); v != nil || r.err == nil {
			t.Errorf("length %d: Bytes = %x, err %v", n, v, r.err)
		}
		r = NewReader([]byte("abcd"))
		if c := r.Count(n, 1); c != 0 || r.err == nil {
			t.Errorf("count %d: Count = %d, err %v", n, c, r.err)
		}
	}
	for _, tc := range []struct {
		n, min uint64
		left   int
		ok     bool
	}{
		{4, 1, 4, true}, {5, 1, 4, false}, {2, 2, 4, true}, {3, 2, 5, false}, {0, 9, 0, true}, {1, 0, 1, true},
	} {
		r := NewReader(make([]byte, tc.left))
		c := r.Count(tc.n, int(tc.min))
		if ok := r.err == nil; ok != tc.ok || (ok && c != int(tc.n)) {
			t.Errorf("Count(%d, %d) over %d bytes = %d, err %v", tc.n, tc.min, tc.left, c, r.err)
		}
	}
	for _, b := range [][]byte{{}, {0x80}, bytes.Repeat([]byte{0xff}, 11)} {
		r := NewReader(b)
		if r.Uvarint(); r.err == nil {
			t.Errorf("Uvarint over %x: no error", b)
		}
		r = NewReader(b)
		if r.Varint(); r.err == nil {
			t.Errorf("Varint over %x: no error", b)
		}
	}
	r := NewReader(make([]byte, 7))
	if r.Float64BE(); r.err == nil {
		t.Error("Float64BE over 7 bytes: no error")
	}
}

func TestContainer(t *testing.T) {
	errFormat, errSum := errors.New("format"), errors.New("checksum")
	c := Container{Magic: "TEST\x00\x01", ErrFormat: errFormat, ErrChecksum: errSum}
	raw := c.Seal(append(c.Begin(), "payload"...))
	got, err := c.Open(raw)
	if err != nil || string(got) != "payload" {
		t.Fatalf("Open = %q, %v", got, err)
	}
	flip := bytes.Clone(raw)
	flip[len(c.Magic)] ^= 1
	for name, tc := range map[string]struct {
		raw  []byte
		want error
	}{
		"empty":       {nil, errFormat},
		"magic only":  {[]byte(c.Magic), errFormat},
		"wrong magic": {append([]byte("TEST\x00\x02"), raw[len(c.Magic):]...), errFormat},
		"bit flip":    {flip, errSum},
		"truncated":   {raw[:len(raw)-1], errSum},
	} {
		if _, err := c.Open(tc.raw); err != tc.want {
			t.Errorf("%s: Open err = %v, want %v", name, err, tc.want)
		}
	}
}

func TestRecords(t *testing.T) {
	var f []byte
	f = AppendRecord(f, []byte("one"))
	second := len(f)
	f = AppendRecord(f, []byte("second record"))
	if len(f) != 2*RecordOverhead+len("one")+len("second record") {
		t.Fatalf("framed %d bytes", len(f))
	}
	size := int64(len(f))
	body, next, err := ReadRecordAt(bytes.NewReader(f), 0, size, 64)
	if err != nil || string(body) != "one" || next != int64(second) {
		t.Fatalf("first record = %q, %d, %v", body, next, err)
	}
	body, next, err = ReadRecordAt(bytes.NewReader(f), next, size, 64)
	if err != nil || string(body) != "second record" || next != size {
		t.Fatalf("second record = %q, %d, %v", body, next, err)
	}
	corrupt := bytes.Clone(f)
	corrupt[second+5] ^= 1
	empty := AppendRecord(nil, nil)
	for name, tc := range map[string]struct {
		f       []byte
		off     int64
		size    int64
		maxBody int
	}{
		"cut by size":      {f, int64(second), size - 1, 64},
		"header only":      {f, int64(second), int64(second) + 4, 64},
		"over max body":    {f, int64(second), size, 12},
		"checksum":         {corrupt, int64(second), size, 64},
		"empty body":       {empty, 0, int64(len(empty)), 64},
		"short underlying": {f[:second+6], int64(second), size, 64},
	} {
		if body, next, err := ReadRecordAt(bytes.NewReader(tc.f), tc.off, tc.size, tc.maxBody); err == nil || next != tc.off {
			t.Errorf("%s: ReadRecordAt = %q, %d, %v; want an error at the same offset", name, body, next, err)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.bin")
	for _, content := range []string{"first", "second, longer"} {
		if err := WriteFileAtomic(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != content {
			t.Fatalf("after WriteFileAtomic(%q): %q, %v", content, got, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only the target (temp file left behind)", len(entries))
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "x.bin"), []byte("x")); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}
