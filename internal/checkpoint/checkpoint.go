// Package checkpoint defines the crash-safe snapshot format for long mining
// runs. A snapshot captures everything needed to continue an interrupted
// exploration with counts that are neither lost nor double-counted:
//
//   - the global frontier — the set of unexplored subtree tasks (bound
//     prefix + remaining candidate range) that partition the remaining
//     search space,
//   - the partial result counters accumulated so far (ordered embeddings
//     plus the engine's Stats counters, packed opaquely by the engine),
//   - fingerprints of the compiled plan and of the data hypergraph, so a
//     snapshot can never be resumed against a different pattern, matching
//     order, or dataset.
//
// The file format is versioned, little-endian, and ends in a CRC32C trailer
// over every preceding byte (shared with the dal store format via
// internal/crcio): torn writes and bit-flips are rejected at load time.
// WriteFile is atomic (temp file in the target directory, fsync, rename),
// so a crash mid-checkpoint leaves the previous snapshot intact.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"ohminer/internal/crcio"
)

const (
	// Magic identifies a snapshot file ("OHMC").
	Magic = 0x4f484d43
	// Version is the current snapshot format version.
	Version = 1

	// maxTasks bounds the frontier length a decoder accepts; beyond it the
	// file is declared corrupt rather than allocating unboundedly.
	maxTasks = 1 << 26
	// maxPrefix bounds a task's prefix length (pattern sizes are tiny).
	maxPrefix = 1 << 12
	// maxCands bounds a task's candidate-range length (hyperedge IDs are
	// uint32, so a range can never meaningfully exceed 2^32 entries; the
	// decoder additionally grows its buffers incrementally so a corrupt
	// length fails on EOF before the allocation it advertises).
	maxCands = 1 << 32
)

// ErrCorrupt tags every snapshot decoding failure; match with errors.Is.
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

// Task is one unexplored subtree: continue the depth-first search at
// matching-order position Depth, binding each hyperedge in Cands, with the
// first Depth positions already bound to Prefix.
type Task struct {
	Depth  uint32
	Prefix []uint32
	Cands  []uint32
}

// Snapshot is the serializable state of an interrupted mining run.
type Snapshot struct {
	// Seq numbers the checkpoints of one run, starting at 1; a resumed run
	// continues the sequence.
	Seq uint64
	// PlanFP fingerprints the compiled plan (pattern, labels, matching
	// order, mode); resuming validates it so frontier prefixes are never
	// interpreted against a different matching order.
	PlanFP uint64
	// GraphFP is the data hypergraph's content fingerprint.
	GraphFP uint64
	// Ordered is the number of ordered embeddings counted so far. Every
	// embedding is either counted here or reachable from exactly one
	// frontier task, never both — the exactly-once invariant.
	Ordered uint64
	// Stats carries the engine's packed Stats counters (opaque to this
	// package; the engine defines the order).
	Stats []uint64
	// Frontier is the set of unexplored subtree tasks.
	Frontier []Task
}

// Sink consumes snapshots as the engine produces them and reports the bytes
// persisted. Implementations must be safe for sequential calls from the
// mining driver; a failed write must leave any previously persisted
// snapshot intact.
type Sink interface {
	WriteSnapshot(s *Snapshot) (int64, error)
}

// Encode writes the snapshot to w in the versioned binary format,
// CRC trailer included.
func (s *Snapshot) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := crcio.NewWriter(bw)
	head := []uint64{
		Magic, Version,
		s.Seq, s.PlanFP, s.GraphFP, s.Ordered,
		uint64(len(s.Stats)),
	}
	if err := writeU64s(cw, head); err != nil {
		return err
	}
	if err := writeU64s(cw, s.Stats); err != nil {
		return err
	}
	if err := writeU64s(cw, []uint64{uint64(len(s.Frontier))}); err != nil {
		return err
	}
	for i := range s.Frontier {
		t := &s.Frontier[i]
		hdr := []uint32{t.Depth, uint32(len(t.Prefix)), uint32(len(t.Cands))}
		for _, arr := range [][]uint32{hdr, t.Prefix, t.Cands} {
			if err := binary.Write(cw, binary.LittleEndian, arr); err != nil {
				return fmt.Errorf("checkpoint: encode frontier: %w", err)
			}
		}
	}
	if err := cw.WriteTrailer(); err != nil {
		return fmt.Errorf("checkpoint: encode trailer: %w", err)
	}
	return bw.Flush()
}

// Marshal returns the snapshot in the same versioned binary format Encode
// writes — the convenience used where snapshots are embedded in other
// containers (cluster lease payloads, the coordinator's WAL state snapshot)
// rather than stored as files.
func (s *Snapshot) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unmarshal decodes a snapshot produced by Marshal (or Encode), with the
// same verification Decode performs.
func Unmarshal(b []byte) (*Snapshot, error) {
	return Decode(bytes.NewReader(b))
}

func writeU64s(w io.Writer, vs []uint64) error {
	if err := binary.Write(w, binary.LittleEndian, vs); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	return nil
}

// Decode reads a snapshot written by Encode, verifying the magic, version,
// structural bounds, and the CRC trailer. Every failure wraps ErrCorrupt
// except a version from a newer format, which gets its own message.
func Decode(r io.Reader) (*Snapshot, error) {
	cr := crcio.NewReader(bufio.NewReader(r))
	head := make([]uint64, 7)
	if err := binary.Read(cr, binary.LittleEndian, head); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if head[0] != Magic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, head[0])
	}
	if head[1] != Version {
		return nil, fmt.Errorf("checkpoint: unsupported snapshot version %d (want %d)", head[1], Version)
	}
	s := &Snapshot{Seq: head[2], PlanFP: head[3], GraphFP: head[4], Ordered: head[5]}
	nstats := head[6]
	if nstats > 1024 {
		return nil, fmt.Errorf("%w: absurd stats length %d", ErrCorrupt, nstats)
	}
	if nstats > 0 {
		s.Stats = make([]uint64, nstats)
		if err := binary.Read(cr, binary.LittleEndian, s.Stats); err != nil {
			return nil, fmt.Errorf("%w: short stats: %v", ErrCorrupt, err)
		}
	}
	var ntasks uint64
	if err := binary.Read(cr, binary.LittleEndian, &ntasks); err != nil {
		return nil, fmt.Errorf("%w: short frontier header: %v", ErrCorrupt, err)
	}
	if ntasks > maxTasks {
		return nil, fmt.Errorf("%w: absurd frontier length %d", ErrCorrupt, ntasks)
	}
	if ntasks > 0 {
		s.Frontier = make([]Task, 0, min(ntasks, 4096))
	}
	for i := uint64(0); i < ntasks; i++ {
		var hdr [3]uint32
		if err := binary.Read(cr, binary.LittleEndian, hdr[:]); err != nil {
			return nil, fmt.Errorf("%w: short task header: %v", ErrCorrupt, err)
		}
		if hdr[1] > maxPrefix || uint64(hdr[2]) > maxCands {
			return nil, fmt.Errorf("%w: absurd task sizes (prefix %d, cands %d)", ErrCorrupt, hdr[1], hdr[2])
		}
		t := Task{Depth: hdr[0]}
		var err error
		if t.Prefix, err = crcio.ReadUint32s(cr, hdr[1]); err != nil {
			return nil, fmt.Errorf("%w: short task prefix: %v", ErrCorrupt, err)
		}
		if t.Cands, err = crcio.ReadUint32s(cr, hdr[2]); err != nil {
			return nil, fmt.Errorf("%w: short task candidates: %v", ErrCorrupt, err)
		}
		s.Frontier = append(s.Frontier, t)
	}
	if err := cr.CheckTrailer("checkpoint"); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, nil
}

// WriteFile atomically persists the snapshot at path (crcio.WriteFileAtomic),
// so a crash mid-write leaves the previous snapshot intact. It returns the
// number of bytes written.
func (s *Snapshot) WriteFile(path string) (int64, error) {
	return crcio.WriteFileAtomic(path, s.Encode)
}

// ReadFile loads and validates a snapshot written by WriteFile.
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// FileSink persists every snapshot to one path, atomically replacing the
// previous one — the standard sink for CLI runs.
type FileSink struct {
	Path string
}

// WriteSnapshot implements Sink.
func (fs *FileSink) WriteSnapshot(s *Snapshot) (int64, error) {
	return s.WriteFile(fs.Path)
}

// MemSink retains the latest snapshot, already encoded, in memory — the sink
// for callers that consume the final frontier programmatically instead of
// persisting it: a cluster worker mines its leased task range with a MemSink
// attached, and when the run is cut short (worker shutdown) the engine's
// final-stop snapshot lands here as exactly the bytes the worker spills back
// to the coordinator as the task's unfinished remainder.
type MemSink struct {
	mu     sync.Mutex
	data   []byte
	seq    uint64
	writes int
}

// WriteSnapshot implements Sink.
func (ms *MemSink) WriteSnapshot(s *Snapshot) (int64, error) {
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		return 0, err
	}
	ms.mu.Lock()
	ms.data = buf.Bytes()
	ms.seq = s.Seq
	ms.writes++
	ms.mu.Unlock()
	return int64(buf.Len()), nil
}

// Bytes returns the latest encoded snapshot (nil when nothing was written).
// The slice is not retained by the sink after a subsequent write.
func (ms *MemSink) Bytes() []byte {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.data
}

// Seq reports the sequence number of the latest snapshot, 0 when none.
func (ms *MemSink) Seq() uint64 {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.seq
}

// Writes reports how many snapshots the sink received.
func (ms *MemSink) Writes() int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.writes
}
