package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"repro/internal/synth"
)

// sealArchive wraps payload in the archive container with a valid CRC,
// so hostile payloads reach the decoder instead of the checksum check.
func sealArchive(payload []byte) []byte {
	raw := append([]byte(nil), magic[:]...)
	raw = append(raw, payload...)
	return binary.BigEndian.AppendUint32(raw, crc32.ChecksumIEEE(payload))
}

// TestReadRejectsHugeStringLength: a CRC-valid archive whose first
// string (the config's channel) claims 2^63 bytes is a typed
// ErrBadFormat, not a slice-bounds panic.
func TestReadRejectsHugeStringLength(t *testing.T) {
	payload := make([]byte, 20) // config: 11 ints, 8 floats, MaxKeyframesPerShot, all zero
	payload = binary.AppendUvarint(payload, 1<<63)
	payload = append(payload, "channel"...)
	var err error
	func() {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("Read panicked: %v", p)
			}
		}()
		_, err = Read(bytes.NewReader(sealArchive(payload)))
	}()
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
}

// FuzzRead feeds payloads, sealed with a valid CRC, to Read. The
// invariant: an archive or an ErrBadFormat, never a panic, and no
// allocation sized from a count the payload merely claims.
func FuzzRead(f *testing.F) {
	// The golden archive, plus a ~1 KB one the fuzzer can mutate fast.
	mini := synth.TinyConfig()
	mini.Days, mini.StoriesPerVideo, mini.NumTopics, mini.NumSearchTopics, mini.BackgroundVocab = 1, 2, 2, 1, 20
	mini.MinShotsPerStory, mini.MaxShotsPerStory, mini.MinWordsPerShot, mini.MaxWordsPerShot = 1, 2, 2, 3
	miniArch, err := synth.Generate(mini, 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, arch := range []*synth.Archive{makeArchive(f, 1), miniArch} {
		var buf bytes.Buffer
		if _, err := Write(&buf, arch); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes()[len(magic) : buf.Len()-4])
	}
	f.Add(make([]byte, 24))
	f.Fuzz(func(t *testing.T, payload []byte) {
		raw := sealArchive(payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		arch, err := Read(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, ErrBadFormat) {
			t.Fatalf("untyped error: %v", err)
		}
		if err == nil && arch == nil {
			t.Fatal("nil archive without an error")
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64*uint64(len(raw))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(raw), n)
		}
	})
}
