package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenArchiveSHA256 pins archive format v1 byte for byte: the
// SHA-256 of Write for synth.TinyConfig at seed 1. A codec change that
// moves any byte of the file fails here, not in a round trip (which a
// symmetric encode/decode change would pass).
const goldenArchiveSHA256 = "671aed303d38c3382a3d384e79ce650047b7ae1b04a747f9b88f2e1664e6fd45"

func TestGoldenArchiveBytes(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Write(&buf, makeArchive(t, 1)); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenArchiveSHA256 {
		t.Fatalf("archive v1 bytes moved: sha256 %s (%d bytes), want %s", got, buf.Len(), goldenArchiveSHA256)
	}
}
