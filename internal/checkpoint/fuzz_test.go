package checkpoint

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// FuzzCheckpointDecode drives arbitrary bytes through the OHMC decoder —
// the bytes a cluster coordinator receives from remote workers as lease
// reports. Decoding must never panic; every refusal wraps ErrCorrupt or is
// the explicit unsupported-version error; and any input it accepts must
// re-encode to a snapshot that decodes identically.
func FuzzCheckpointDecode(f *testing.F) {
	for _, s := range []*Snapshot{sample(), {}, {Frontier: []Task{{Depth: 0, Cands: []uint32{1, 2, 3}}}}} {
		b, err := s.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		for _, cut := range []int{len(b), len(b) - 1, len(b) - 4, len(b) / 2, 56, 8, 0} {
			f.Add(b[:max(cut, 0)])
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Unmarshal(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !strings.Contains(err.Error(), "unsupported snapshot version") {
				t.Fatalf("refusal neither wraps ErrCorrupt nor names the version: %v", err)
			}
			return
		}
		enc, err := s.Marshal()
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		s2, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("re-decode drifted:\n%+v\n%+v", s, s2)
		}
	})
}
