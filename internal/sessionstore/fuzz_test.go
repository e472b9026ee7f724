package sessionstore

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// frameRecord frames body as one journal record with a valid CRC.
func frameRecord(body []byte) []byte {
	rec := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	rec = append(rec, body...)
	return binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(body))
}

// TestOpenJournalSurvivesHugeIDLength: a CRC-valid record whose id
// claims 2^63 bytes is refused like any corrupt tail, so the journal
// still opens with every record before it, instead of a slice-bounds
// panic that keeps the serving process from starting.
func TestOpenJournalSurvivesHugeIDLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.jnl")
	j := openTestJournal(t, path)
	if err := j.Put("s1", []byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	body := binary.AppendUvarint([]byte{recVersion, opPut}, 1<<63)
	body = append(body, "id-and-payload"...)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frameRecord(body)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var j2 *JournalStore
	func() {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("OpenJournal panicked: %v", p)
			}
		}()
		j2 = openTestJournal(t, path)
	}()
	if got, err := j2.Get("s1"); err != nil || string(got) != "good" {
		t.Fatalf("record before the hostile one: %q, %v", got, err)
	}
}

// FuzzDecodeBody feeds record bodies to decodeBody. The invariant: the
// parts or ErrBadFormat, never a panic, and a payload that is the tail
// of the body (never an allocation sized from the id length).
func FuzzDecodeBody(f *testing.F) {
	golden, err := hex.DecodeString(goldenJournal)
	if err != nil {
		f.Fatal(err)
	}
	// Bodies of the golden put and delete records (length-prefixed after
	// the 8-byte magic, each followed by its CRC).
	rest := golden[len(journalMagic):]
	for len(rest) >= 4 {
		n := binary.BigEndian.Uint32(rest)
		f.Add(rest[4 : 4+n])
		rest = rest[4+n+4:]
	}
	f.Add(binary.AppendUvarint([]byte{recVersion, opPut}, 1<<63))
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		id, payload, op, err := decodeBody(body)
		runtime.ReadMemStats(&after)
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if op != opPut && op != opDelete {
			t.Fatalf("accepted op %d", op)
		}
		if 2+len(id)+len(payload) > len(body) {
			t.Fatalf("id %d + payload %d bytes from a %d-byte body", len(id), len(payload), len(body))
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 2*uint64(len(body))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(body), n)
		}
	})
}
