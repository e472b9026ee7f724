package binfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Container is a sealed file format:
//
//	magic    len(Magic) bytes
//	payload  N bytes
//	crc32    4 bytes  big-endian IEEE checksum of payload
type Container struct {
	Magic string
	// ErrFormat and ErrChecksum are the owning package's typed errors:
	// Open returns ErrFormat for a short file or a foreign magic and
	// ErrChecksum for a payload that fails its CRC.
	ErrFormat, ErrChecksum error
}

// Begin returns a buffer holding the magic; append the payload to it,
// then Seal it.
func (c Container) Begin() []byte { return []byte(c.Magic) }

// Seal appends the CRC trailer to buf, a Begin buffer with the payload
// appended.
func (c Container) Seal(buf []byte) []byte {
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[len(c.Magic):]))
}

// Open checks raw's magic and checksum and returns its payload, which
// aliases raw.
func (c Container) Open(raw []byte) ([]byte, error) {
	if len(raw) < len(c.Magic)+4 || string(raw[:len(c.Magic)]) != c.Magic {
		return nil, c.ErrFormat
	}
	payload := raw[len(c.Magic) : len(raw)-4]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(raw[len(raw)-4:]) {
		return nil, c.ErrChecksum
	}
	return payload, nil
}

// RecordOverhead is what a record adds around its body: a 4-byte
// big-endian body length before it and a 4-byte big-endian IEEE CRC-32
// of the body after it.
const RecordOverhead = 8

// AppendRecord appends body framed as one record.
func AppendRecord(dst, body []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	dst = append(dst, body...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
}

// ReadRecordAt reads the record that starts at off in r, whose data
// ends at size, and returns its body and the offset just past it. A
// record that is cut off by size, empty, longer than maxBody bytes or
// fails its CRC is an error.
func ReadRecordAt(r io.ReaderAt, off, size int64, maxBody int) (body []byte, next int64, err error) {
	if size-off < RecordOverhead {
		return nil, off, fmt.Errorf("truncated record at offset %d", off)
	}
	var hdr [4]byte
	if _, err := r.ReadAt(hdr[:], off); err != nil {
		return nil, off, fmt.Errorf("read record at offset %d: %w", off, err)
	}
	n := int64(binary.BigEndian.Uint32(hdr[:]))
	if n == 0 || n > int64(maxBody) || n > size-off-RecordOverhead {
		return nil, off, fmt.Errorf("bad record length %d at offset %d", n, off)
	}
	rec := make([]byte, n+4)
	if _, err := r.ReadAt(rec, off+4); err != nil {
		return nil, off, fmt.Errorf("read record at offset %d: %w", off, err)
	}
	body = rec[:n]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(rec[n:]) {
		return nil, off, fmt.Errorf("record checksum mismatch at offset %d", off)
	}
	return body, off + RecordOverhead + n, nil
}

// WriteFileAtomic replaces path with data so that after a crash path
// names either the old file or the complete new one: data goes to a
// temporary file in the same directory, which is synced and closed
// before it is renamed over path.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // fails harmlessly once renamed
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
