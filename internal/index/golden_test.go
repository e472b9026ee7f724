package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenIndexSHA256 pins index format v3 byte for byte: the SHA-256 of
// WriteTo for buildSmall's four documents.
const goldenIndexSHA256 = "a057705e669cf07468fa7f20ead020a7ffe555bfb2c6a6e8aaebf2e744357194"

func TestGoldenIndexBytes(t *testing.T) {
	var buf bytes.Buffer
	if _, err := buildSmall(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenIndexSHA256 {
		t.Fatalf("index v3 bytes moved: sha256 %s (%d bytes), want %s", got, buf.Len(), goldenIndexSHA256)
	}
}
