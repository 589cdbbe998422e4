// Package crcio provides the on-disk plumbing shared by the binary formats
// of this repository: the CRC32-Castagnoli trailer (the dal store file and
// the checkpoint and stream snapshots all end in a little-endian CRC32C
// computed over every preceding byte, so torn writes and bit-flips are
// detected at load time instead of surfacing as silently wrong mining
// results), the bounded-allocation reader their decoders share, and the one
// atomic temp+fsync+rename writer every durable file goes through.
package crcio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Writer tees everything written through it into a running CRC32C.
type Writer struct {
	W   io.Writer
	sum uint32
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{W: w} }

func (w *Writer) Write(p []byte) (int, error) {
	n, err := w.W.Write(p)
	w.sum = crc32.Update(w.sum, castagnoli, p[:n])
	return n, err
}

// Sum32 returns the CRC of everything written so far.
func (w *Writer) Sum32() uint32 { return w.sum }

// WriteTrailer appends the current CRC as a little-endian uint32 to the
// underlying writer (the trailer itself is not folded into the sum).
func (w *Writer) WriteTrailer() error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], w.sum)
	_, err := w.W.Write(buf[:])
	return err
}

// Reader tees everything read through it into a running CRC32C.
type Reader struct {
	R   io.Reader
	sum uint32
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{R: r} }

func (r *Reader) Read(p []byte) (int, error) {
	n, err := r.R.Read(p)
	r.sum = crc32.Update(r.sum, castagnoli, p[:n])
	return n, err
}

// Sum32 returns the CRC of everything read so far.
func (r *Reader) Sum32() uint32 { return r.sum }

// CheckTrailer reads the 4-byte little-endian trailer from the underlying
// reader (bypassing the sum) and compares it with the CRC of everything read
// so far; what describes the format for error messages ("dal", "checkpoint").
func (r *Reader) CheckTrailer(what string) error {
	want := r.sum
	var buf [4]byte
	if _, err := io.ReadFull(r.R, buf[:]); err != nil {
		return fmt.Errorf("%s: missing checksum trailer: %w", what, err)
	}
	if got := binary.LittleEndian.Uint32(buf[:]); got != want {
		return fmt.Errorf("%s: corrupt payload: checksum mismatch (file %#x, computed %#x)", what, got, want)
	}
	return nil
}

// readChunk bounds how many elements ReadUint32s allocates ahead of the
// bytes actually read.
const readChunk = 1 << 12

// ReadUint32s reads n little-endian uint32s, growing the result one chunk at
// a time so a corrupt length fails with a short read instead of allocating
// the advertised size up front. n == 0 returns nil.
func ReadUint32s(r io.Reader, n uint32) ([]uint32, error) {
	if n == 0 {
		return nil, nil
	}
	out := make([]uint32, 0, min(n, readChunk))
	for have := uint32(0); have < n; have = uint32(len(out)) {
		k := int(min(n-have, readChunk))
		out = slices.Grow(out, k)[:len(out)+k]
		if err := binary.Read(r, binary.LittleEndian, out[have:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WriteFileAtomic persists what write produces at path: the bytes go
// through a buffered writer into a temporary file in path's directory,
// which is fsynced, closed and renamed over path, so a crash mid-write
// leaves the previous file intact and never a torn one. It returns the
// number of bytes written.
func WriteFileAtomic(path string, write func(io.Writer) error) (int64, error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	var size int64
	if err == nil {
		size, err = f.Seek(0, io.SeekCurrent)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return 0, err
	}
	return size, nil
}
