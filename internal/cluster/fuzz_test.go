package cluster

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// FuzzWALScan drives arbitrary bytes through the coordinator's two recovery
// decoders: scanWAL over wal.log and decodeState (loadState's parser) over
// state.ohms. Neither may panic; every refusal wraps ErrCorrupt or is the
// explicit unsupported-version error; and an accepted log's intact prefix
// must rescan to the same records, as replay after a torn-tail truncate
// does.
func FuzzWALScan(f *testing.F) {
	var log []byte
	log = binary.LittleEndian.AppendUint32(log, walMagic)
	log = binary.LittleEndian.AppendUint32(log, walVersion)
	for _, rec := range []*walRecord{
		{Seq: 1, T: recAdmit, Job: "j", Spec: &JobSpec{Pattern: "0 1; 0 2", Parts: 4}, GraphFP: 7, JobSeq: 1},
		{Seq: 2, T: recGrant, Job: "j", Task: 1, Epoch: 1, Worker: "w1"},
		{Seq: 3, T: recReport, Job: "j", Report: &Report{Worker: "w1", Job: "j", Task: 1, Epoch: 1, Ordered: 9, Remainder: []byte("OHMC")}},
		{Seq: 4, T: recFinish, Job: "j", State: "done", Elapsed: 5},
	} {
		frame, err := frameRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		log = append(log, frame...)
	}
	state, err := encodeState(&walState{GraphFP: 7, JobSeq: 1, LastSeq: 4, Jobs: []walJob{{
		ID: "j", Spec: JobSpec{Pattern: "0 1; 0 2"}, State: "running", Queue: []int{0},
		Tasks: []walTask{{State: taskPending, Cands: 3, Frontier: []byte("OHMC")}},
	}}})
	if err != nil {
		f.Fatal(err)
	}
	for _, cut := range []int{0, 4, walHdrLen, walHdrLen + 3, len(log) / 2, len(log) - 1, len(log)} {
		f.Add(log[:cut], state[:min(cut, len(state))])
	}
	f.Add(log, state)

	refusal := func(t *testing.T, what string, err error) {
		if !errors.Is(err, ErrCorrupt) && !strings.Contains(err.Error(), "version") {
			t.Fatalf("%s refusal neither wraps ErrCorrupt nor names the version: %v", what, err)
		}
	}
	f.Fuzz(func(t *testing.T, log, state []byte) {
		recs, valid, err := scanWAL(log)
		if err != nil {
			refusal(t, "scanWAL", err)
		} else {
			if valid < 0 || valid > int64(len(log)) {
				t.Fatalf("intact prefix %d outside [0, %d]", valid, len(log))
			}
			again, valid2, err := scanWAL(log[:valid])
			if err != nil || valid2 != valid || len(again) != len(recs) {
				t.Fatalf("intact prefix rescans to %d records / %d bytes (err %v), want %d / %d",
					len(again), valid2, err, len(recs), valid)
			}
		}
		if _, err := decodeState(state); err != nil {
			refusal(t, "decodeState", err)
		}
	})
}
