package shard

import (
	"context"
	"io"

	"sling"
	"sling/internal/httpclient"
)

// Client is one shard as the router sees it: the three fragment
// primitives of sling.ShardBackend plus a Close releasing whatever the
// transport holds. The two implementations are a local in-process
// backend and the HTTP client driving a remote slingserver's /shard
// routes — the router cannot tell them apart, which is what lets the
// conformance matrix hold the HTTP deployment to bitwise equality.
type Client interface {
	Fragment(ctx context.Context, u sling.NodeID) (*sling.Fragment, error)
	SourceSlice(ctx context.Context, f *sling.Fragment, lo, hi int) ([]float64, error)
	TopSlice(ctx context.Context, f *sling.Fragment, k int, skip sling.NodeID, lo, hi int) ([]sling.Scored, error)
	io.Closer
}

// The HTTP client already speaks the shard wire protocol.
var _ Client = (*httpclient.Client)(nil)

// sliceWriter is the optional upgrade of a Client that can write its
// score slice straight into the router's output vector, the way io.Copy
// upgrades a Reader to io.WriterTo. dst has hi-lo elements and is
// overwritten in full. In-process clients implement it; clients that
// do not (remote shards, wrappers) are served through SourceSlice and a
// copy, with identical results.
type sliceWriter interface {
	SourceSliceInto(ctx context.Context, f *sling.Fragment, lo, hi int, dst []float64) error
}

var _ sliceWriter = localClient{}

// localClient serves shard calls from an in-process backend (an
// in-memory or disk index sliced to the shard's range).
type localClient struct {
	b sling.ShardBackend
}

// NewLocal wraps an in-process shard backend as a Client. Close closes
// the backend.
func NewLocal(b sling.ShardBackend) Client { return localClient{b} }

func (c localClient) Fragment(ctx context.Context, u sling.NodeID) (*sling.Fragment, error) {
	return c.b.Fragment(ctx, u)
}

func (c localClient) SourceSlice(ctx context.Context, f *sling.Fragment, lo, hi int) ([]float64, error) {
	return c.b.SourceSlice(ctx, f, lo, hi)
}

func (c localClient) SourceSliceInto(ctx context.Context, f *sling.Fragment, lo, hi int, dst []float64) error {
	return c.b.SourceSliceInto(ctx, f, lo, hi, dst)
}

func (c localClient) TopSlice(ctx context.Context, f *sling.Fragment, k int, skip sling.NodeID, lo, hi int) ([]sling.Scored, error) {
	return c.b.TopSlice(ctx, f, k, skip, lo, hi)
}

func (c localClient) Close() error { return c.b.Close() }
