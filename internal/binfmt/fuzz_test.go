package binfmt

import (
	"encoding/binary"
	"testing"
)

// FuzzReader drives a Reader over data with a read sequence chosen by
// ops. Invariants: no read panics, the cursor never moves backwards or
// past the end, nothing is read once an error is recorded, Count never
// admits more elements than the bytes left can hold, and Done fails
// exactly when an error was recorded or bytes are left.
func FuzzReader(f *testing.F) {
	var b []byte
	b = binary.AppendUvarint(b, 2)
	b = AppendString(b, "s0042")
	b = binary.AppendVarint(b, -3)
	b = binary.LittleEndian.AppendUint64(b, 42)
	b = AppendBytes(b, []byte{1, 2, 3})
	f.Add([]byte{7, 4, 2, 5, 3}, b)
	f.Add([]byte{1, 1, 1, 0, 8}, []byte{0x80, 0x80, 0x01, 0xff})
	f.Add([]byte{3}, binary.AppendUvarint(nil, 1<<63))
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		r := NewReader(data)
		for _, op := range ops {
			before, failed := r.remaining(), r.err != nil
			switch op % 9 {
			case 0:
				r.Byte()
			case 1:
				r.Uvarint()
			case 2:
				r.Varint()
			case 3:
				r.Bytes()
			case 4:
				_ = r.String()
			case 5:
				r.Float64LE()
			case 6:
				r.Float64BE()
			case 7:
				size := int(op >> 4)
				n := r.Count(r.Uvarint(), size)
				if n < 0 || n*max(size, 1) > r.remaining() {
					t.Fatalf("Count admitted %d elements of %d bytes with %d bytes left", n, size, r.remaining())
				}
			case 8:
				r.Rest()
			}
			after := r.remaining()
			if after < 0 || after > before {
				t.Fatalf("op %d moved the cursor from %d to %d bytes left", op%9, before, after)
			}
			if failed && after != before {
				t.Fatalf("op %d read after an error", op%9)
			}
		}
		left, failed := r.remaining(), r.err != nil
		if err := r.Done(); (err != nil) != (failed || left > 0) {
			t.Fatalf("Done = %v with %d bytes left, failed=%v", err, left, failed)
		}
	})
}
