package crcio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestWriteFileAtomic: a successful write replaces the file and reports its
// size; a failing write leaves the previous contents and no temp file.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	put := func(data string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, data)
			return err
		}
	}
	for _, data := range []string{"first version", "second"} {
		n, err := WriteFileAtomic(path, put(data))
		if err != nil || n != int64(len(data)) {
			t.Fatalf("write %q: n=%d err=%v", data, n, err)
		}
		if got, _ := os.ReadFile(path); string(got) != data {
			t.Fatalf("file holds %q, want %q", got, data)
		}
	}

	boom := errors.New("boom")
	_, err := WriteFileAtomic(path, func(w io.Writer) error {
		if err := put("torn")(w); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("failed write left %q, want the previous %q", got, "second")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("failed write left %d entries in the directory, want 1", len(entries))
	}
}

// TestReadUint32s: lengths around the chunk size round-trip, and a corrupt
// length far beyond the input fails on the short read instead of
// allocating what it advertises.
func TestReadUint32s(t *testing.T) {
	for _, n := range []uint32{0, 1, readChunk - 1, readChunk, 2*readChunk + 7} {
		want := make([]uint32, n)
		for i := range want {
			want[i] = uint32(i) * 2654435761
		}
		var buf bytes.Buffer
		if err := binary.Write(&buf, binary.LittleEndian, want); err != nil {
			t.Fatal(err)
		}
		got, err := ReadUint32s(&buf, n)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("n=%d: got %d values, err %v", n, len(got), err)
		}
	}
	if _, err := ReadUint32s(bytes.NewReader(make([]byte, 16)), 1<<31); err == nil {
		t.Fatal("a length of 2^31 over 16 bytes decoded")
	}
}
