package dal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"ohminer/internal/crcio"
	"ohminer/internal/hypergraph"
)

// Binary persistence for the DAL. The paper amortizes DAL construction as
// offline preprocessing reused across HPM applications (Sec. 4.5/Table 6);
// Save/Load make that concrete: construction runs once, subsequent
// processes load the index in a single sequential read. The header embeds
// the source hypergraph's fingerprint, so loading against a different
// hypergraph fails instead of silently mis-indexing, and the file ends in a
// CRC32C trailer over every preceding byte (shared with the checkpoint
// snapshot format via internal/crcio), so torn writes and bit-flips are
// rejected at load time instead of surfacing as silently wrong mining
// results.

const (
	dalMagic = 0x4f484d44 // "OHMD"
	// dalVersion 2 appended the CRC32C trailer; version-1 files (no
	// trailer) are rejected with a rebuild hint rather than risking an
	// undetected corruption window.
	dalVersion = 2
)

// Save writes the store in binary form.
func (s *Store) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := crcio.NewWriter(bw)
	header := []uint64{
		dalMagic,
		dalVersion,
		s.h.Fingerprint(),
		uint64(len(s.adjOff)),
		uint64(len(s.adj)),
		uint64(len(s.grpOff)),
		uint64(len(s.grpDeg)),
		uint64(len(s.grpStart)),
	}
	for _, v := range header {
		if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("dal: save header: %w", err)
		}
	}
	for _, arr := range [][]uint32{s.adjOff, s.adj, s.grpOff, s.grpDeg, s.grpStart} {
		if err := binary.Write(cw, binary.LittleEndian, arr); err != nil {
			return fmt.Errorf("dal: save data: %w", err)
		}
	}
	if err := cw.WriteTrailer(); err != nil {
		return fmt.Errorf("dal: save trailer: %w", err)
	}
	return bw.Flush()
}

// SaveFile atomically writes the store to the named file (temp file,
// fsync, rename), so a crash mid-save leaves any previous store intact.
func (s *Store) SaveFile(path string) error {
	_, err := crcio.WriteFileAtomic(path, s.Save)
	return err
}

// Load reads a store previously written by Save and attaches it to h, which
// must be the identical hypergraph (verified via fingerprint).
func Load(r io.Reader, h *hypergraph.Hypergraph) (*Store, error) {
	cr := crcio.NewReader(bufio.NewReader(r))
	header := make([]uint64, 8)
	for i := range header {
		if err := binary.Read(cr, binary.LittleEndian, &header[i]); err != nil {
			return nil, fmt.Errorf("dal: corrupt store: short header: %w", err)
		}
	}
	if header[0] != dalMagic {
		return nil, fmt.Errorf("dal: not a DAL store (magic %#x, want %#x)", header[0], dalMagic)
	}
	if header[1] != dalVersion {
		return nil, fmt.Errorf("dal: unsupported store version %d (this build reads version %d; rebuild the store from the hypergraph)", header[1], dalVersion)
	}
	if header[2] != h.Fingerprint() {
		return nil, fmt.Errorf("dal: store was built for a different hypergraph (fingerprint %#x, want %#x)", header[2], h.Fingerprint())
	}
	m := h.NumEdges()
	if header[3] != uint64(m+1) || header[5] != uint64(m+1) {
		return nil, fmt.Errorf("dal: corrupt store: offset tables sized %d/%d for %d hyperedges", header[3], header[5], m)
	}
	// Bound the array lengths relative to the hypergraph before allocating:
	// a corrupt header must produce an error, not a multi-gigabyte
	// allocation. Each hyperedge has at most m-1 distinct neighbors, so the
	// adjacency table can never exceed m*(m-1) entries, and the group
	// tables cannot outnumber the adjacency entries they partition
	// (validate() enforces the exact relationships after the read).
	if maxAdj := uint64(m) * uint64(m-1); header[4] > maxAdj {
		return nil, fmt.Errorf("dal: corrupt store: %d adjacency entries exceed the %d possible for %d hyperedges", header[4], maxAdj, m)
	}
	if header[6] != header[7] {
		return nil, fmt.Errorf("dal: corrupt store: group tables disagree (%d vs %d)", header[6], header[7])
	}
	if header[6] > header[4]+1 {
		return nil, fmt.Errorf("dal: corrupt store: %d groups over %d adjacency entries", header[6], header[4])
	}
	s := &Store{
		h:        h,
		adjOff:   make([]uint32, header[3]),
		adj:      make([]uint32, header[4]),
		grpOff:   make([]uint32, header[5]),
		grpDeg:   make([]uint32, header[6]),
		grpStart: make([]uint32, header[7]),
	}
	for _, arr := range [][]uint32{s.adjOff, s.adj, s.grpOff, s.grpDeg, s.grpStart} {
		if err := binary.Read(cr, binary.LittleEndian, arr); err != nil {
			return nil, fmt.Errorf("dal: corrupt store: short data: %w", err)
		}
	}
	// The checksum runs before structural validation so a damaged file is
	// reported as corruption rather than as a puzzling structural defect.
	if err := cr.CheckTrailer("dal"); err != nil {
		return nil, err
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	// The global degree index and the adaptive-container arenas are derived
	// state, so they are rebuilt here instead of being part of the file
	// format (the density rule may also evolve across builds; a stale
	// serialized window layout would pin old thresholds).
	s.buildDegreeIndex()
	s.buildContainers()
	return s, nil
}

// LoadFile reads a store from the named file.
func LoadFile(path string, h *hypergraph.Hypergraph) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, h)
}

// validate performs structural sanity checks on a loaded store so that a
// corrupt file cannot cause out-of-range panics during mining.
func (s *Store) validate() error {
	m := s.h.NumEdges()
	if s.adjOff[0] != 0 || int(s.adjOff[m]) != len(s.adj) {
		return fmt.Errorf("dal: corrupt adjacency offsets")
	}
	if s.grpOff[0] != 0 || int(s.grpOff[m]) != len(s.grpDeg) || len(s.grpDeg) != len(s.grpStart) {
		return fmt.Errorf("dal: corrupt group offsets")
	}
	for e := 0; e < m; e++ {
		if s.adjOff[e] > s.adjOff[e+1] || s.grpOff[e] > s.grpOff[e+1] {
			return fmt.Errorf("dal: non-monotonic offsets at edge %d", e)
		}
	}
	for _, n := range s.adj {
		if int(n) >= m {
			return fmt.Errorf("dal: neighbor id %d out of range", n)
		}
	}
	for i, st := range s.grpStart {
		if int(st) > len(s.adj) {
			return fmt.Errorf("dal: group start %d out of range", i)
		}
	}
	return nil
}
