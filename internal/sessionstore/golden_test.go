package sessionstore

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// goldenJournal pins journal format v1 byte for byte: the file a fresh
// journal holds after one Put and one Delete (magic, a put record, a
// delete record).
const goldenJournal = "495652534a4c000100000010010106736573732d31737461746500ff9a6077a700000009010206736573732d31522a3656"

func TestGoldenJournalRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.jnl")
	j := openTestJournal(t, path)
	if err := j.Put("sess-1", []byte("state\x00\xff")); err != nil {
		t.Fatal(err)
	}
	if err := j.Delete("sess-1"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(raw); got != goldenJournal {
		t.Fatalf("journal v1 bytes moved:\n got %s\nwant %s", got, goldenJournal)
	}
}
