package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// Stop-path regression tests. Every way a run can end early — the caller's
// context, Options.Deadline, and the checkpoint period — ends the round
// context, and its AfterFunc sets the shared stop flag. These tests pin the
// contract of that single path on checkpointed runs, where the stop flag is
// reset between rounds.

// TestDeadlineWithCheckpointTruncates: a deadline shorter than the run on a
// checkpointed run returns Truncated with a nil error, leaves a final
// snapshot matching the partial result, and that snapshot resumes to the
// exact uninterrupted total. The deadline has to survive the stop-flag reset
// between checkpoint rounds, or the run would keep going to completion.
func TestDeadlineWithCheckpointTruncates(t *testing.T) {
	store, p, want := slowWorkload(t)
	sink := &memSink{}
	opts := chaosOpts(sink)
	opts.Deadline = 30 * time.Millisecond
	res, err := Mine(store, p, opts)
	if err != nil {
		t.Fatalf("deadline is not an error, got %v", err)
	}
	if !res.Truncated {
		t.Fatalf("deadline run not Truncated (Ordered=%d of %d in %v)", res.Ordered, want, res.Elapsed)
	}
	if res.Ordered >= want {
		t.Fatalf("deadline did not cut the run short (%d >= %d)", res.Ordered, want)
	}
	if sink.writes() < 2 {
		t.Errorf("only %d snapshots written; the deadline should span several checkpoint periods", sink.writes())
	}
	snap := sink.latest(t)
	if snap.Ordered != res.Ordered {
		t.Errorf("final snapshot Ordered=%d, result says %d", snap.Ordered, res.Ordered)
	}

	resumed, err := ResumeFromCheckpoint(context.Background(), store, p, snap, chaosOpts(nil))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if resumed.Ordered != want || resumed.Truncated {
		t.Errorf("resumed Ordered=%d Truncated=%v, want %d/false", resumed.Ordered, resumed.Truncated, want)
	}
}

// TestCancelDuringCheckpointedRun: a caller cancel that lands mid-round on a
// checkpointed run still returns context.Canceled, and the snapshot it
// leaves resumes to the exact total.
func TestCancelDuringCheckpointedRun(t *testing.T) {
	store, p, want := slowWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &memSink{}
	timer := time.AfterFunc(25*time.Millisecond, cancel)
	defer timer.Stop()
	res, err := MineContext(ctx, store, p, chaosOpts(sink))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled (Ordered=%d of %d)", err, res.Ordered, want)
	}
	if !res.Truncated || res.Ordered >= want {
		t.Fatalf("cancelled run: Ordered=%d Truncated=%v, want a truncated partial count", res.Ordered, res.Truncated)
	}
	snap := sink.latest(t)
	if snap.Ordered != res.Ordered {
		t.Errorf("final snapshot Ordered=%d, result says %d", snap.Ordered, res.Ordered)
	}
	resumed, err := ResumeFromCheckpoint(context.Background(), store, p, snap, chaosOpts(nil))
	if err != nil || resumed.Ordered != want {
		t.Errorf("resume got (%d, %v), want (%d, nil)", resumed.Ordered, err, want)
	}
}

// TestMineContextNoGoroutineLeak: runs on a live context that is never
// cancelled must leave no goroutine behind, whether or not a deadline and
// checkpointing are configured.
func TestMineContextNoGoroutineLeak(t *testing.T) {
	store, p := fig1(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	baseline := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		opts := Options{Workers: 2}
		if i%2 == 1 {
			opts.Deadline = time.Minute
			opts.Checkpoint = &memSink{}
			opts.CheckpointEvery = time.Minute
		}
		res, err := MineContext(ctx, store, p, opts)
		if err != nil || res.Truncated {
			t.Fatalf("run %d: err=%v truncated=%v", i, err, res.Truncated)
		}
	}
	// Worker goroutines are joined before MineContext returns; allow the
	// runtime a moment to retire any exiting goroutine of earlier tests.
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); got > baseline && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		got = runtime.NumGoroutine()
	}
	if got > baseline {
		t.Errorf("NumGoroutine=%d after 200 runs, baseline %d", got, baseline)
	}
}
