package core

import (
	"encoding/hex"
	"runtime"
	"strings"
	"testing"
)

// FuzzRestoreSession feeds snapshot bytes to System.RestoreSession. The
// invariant: a session or a "core: restore" error, never a panic, and
// no allocation sized from a count the snapshot merely claims.
func FuzzRestoreSession(f *testing.F) {
	golden, err := hex.DecodeString(goldenSessionState)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte{binarySnapshotTag, 1, 'x', 0, 0, 0, 0, 0})
	_, sys := fixture(f, Config{UseImplicit: true, UseProfile: true})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sess, err := sys.RestoreSession(data)
		runtime.ReadMemStats(&after)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "core: restore") {
				t.Fatalf("untyped error: %v", err)
			}
			if sess != nil {
				t.Fatal("a session came back with an error")
			}
		} else if sess == nil {
			t.Fatal("nil session without an error")
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64*uint64(len(data))+256<<10 {
			t.Fatalf("restoring %d bytes allocated %d", len(data), n)
		}
	})
}
