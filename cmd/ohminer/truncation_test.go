package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ohminer/internal/checkpoint"
	"ohminer/internal/dal"
	"ohminer/internal/engine"
	"ohminer/internal/hypergraph"
	"ohminer/internal/pattern"
)

// TestCancelAfterDrainIsComplete is the regression test for a checkpointed
// run cancelled after its workers drained every task: the engine returns
// context.Canceled with complete counts, Truncated=false and no snapshot,
// and ohminer must treat that as a clean completion (exit 0, no "snapshot
// retained" line) instead of an interrupt. The trigger is deterministic: a
// one-seed run whose embedding callback cancels on the run's only — and
// therefore last — embedding, which is also the last candidate at every
// depth.
func TestCancelAfterDrainIsComplete(t *testing.T) {
	h, err := hypergraph.Build(3, [][]uint32{{0, 1}, {1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := dal.Build(h)
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, nil)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := engine.MineContext(ctx, store, p, engine.Options{
		Workers:     1,
		Seeds:       []uint32{0},
		OnEmbedding: func([]uint32) { cancel() },
		Checkpoint:  &checkpoint.FileSink{Path: ckpt},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Truncated || res.Ordered != 1 {
		t.Fatalf("result %+v: want complete (Truncated=false, Ordered=1)", res)
	}
	if _, serr := os.Stat(ckpt); !os.IsNotExist(serr) {
		t.Fatalf("a drained run left a snapshot (stat err %v)", serr)
	}

	cause, fatal := truncation(res, err)
	if cause != nil || fatal != nil {
		t.Fatalf("truncation(drained, Canceled) = %v, %v; want a clean completion", cause, fatal)
	}
	// A run that did walk away from work keeps its exit-code tag.
	res.Truncated = true
	if cause, _ := truncation(res, err); !errors.Is(cause, errInterrupted) {
		t.Fatalf("truncated cancelled run: cause %v, want errInterrupted", cause)
	}
	if cause, _ := truncation(res, context.DeadlineExceeded); !errors.Is(cause, errDeadline) {
		t.Fatalf("truncated deadline run: cause %v, want errDeadline", cause)
	}
	boom := errors.New("boom")
	if _, fatal := truncation(res, boom); fatal != boom {
		t.Fatalf("non-context error: fatal %v, want it passed through", fatal)
	}
}
