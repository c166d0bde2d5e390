package dynamic

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"sling/internal/core"
	"sling/internal/graph"
)

// countedErrCtx is a context whose Err() starts failing after a fixed
// number of calls (the shape of internal/core's test of the same name).
// With two workers and two sources the batch consults Err() once per
// claimed source, so every failAfter >= 2 models a ctx cancelled only
// after the last source was handed out.
type countedErrCtx struct {
	failAfter int64
	calls     atomic.Int64
}

func (c *countedErrCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countedErrCtx) Done() <-chan struct{}       { return nil }
func (c *countedErrCtx) Value(any) any               { return nil }
func (c *countedErrCtx) Err() error {
	if c.calls.Add(1) > c.failAfter {
		return context.Canceled
	}
	return nil
}

// TestDynamicBatchLateCancelCompletes: a ctx that reports cancelled only
// after every source has been claimed must not fail the dynamic batch;
// the rows are computed, so they are returned.
func TestDynamicBatchLateCancelCompletes(t *testing.T) {
	g, _ := randomGraph(30, 150, 3)
	d, err := New(g, Options{Build: core.Options{Eps: 0.1, Seed: 3}, NumWalks: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	us := []graph.NodeID{4, 11}
	want, err := d.SingleSourceBatch(nil, us, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, failAfter := range []int64{2, 3, 4} {
		got, err := d.SingleSourceBatch(&countedErrCtx{failAfter: failAfter}, us, 2)
		if err != nil {
			t.Fatalf("failAfter=%d: late cancel discarded a completed batch: %v", failAfter, err)
		}
		for i := range want {
			for v := range want[i] {
				if got[i][v] != want[i][v] {
					t.Fatalf("failAfter=%d: row %d differs at %d: %v vs %v", failAfter, i, v, got[i][v], want[i][v])
				}
			}
		}
	}

	// Cancelled before any work: still an error.
	if _, err := d.SingleSourceBatch(&countedErrCtx{failAfter: 0}, us, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("early cancel returned %v, want context.Canceled", err)
	}
}
