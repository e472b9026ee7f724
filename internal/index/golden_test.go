package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenIndexSHA256 pins index format v2 byte for byte: the SHA-256 of
// WriteTo for buildSmall's four documents.
const goldenIndexSHA256 = "9e4e7d124feab8d346bc05a2c41cdad277fb1b9f9fe03e1da694ec7dee758c70"

func TestGoldenIndexBytes(t *testing.T) {
	var buf bytes.Buffer
	if _, err := buildSmall(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenIndexSHA256 {
		t.Fatalf("index v2 bytes moved: sha256 %s (%d bytes), want %s", got, buf.Len(), goldenIndexSHA256)
	}
}
