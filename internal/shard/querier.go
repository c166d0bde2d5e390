package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"sling"
	"sling/internal/core"
	"sling/internal/metrics"
)

// Instrument names for the scatter/gather fan-out. Every series carries
// a "shard" label with the shard's decimal ID.
const (
	// MetricFanout is the per-shard call latency histogram.
	MetricFanout = "sling_shard_fanout_seconds"
	// MetricErrors counts failed per-shard calls.
	MetricErrors = "sling_shard_errors_total"
)

// Querier routes sling.Querier calls across shards by scatter/gather:
//
//   - SimRank fetches the two endpoints' fragments from their owner
//     shards (in parallel when they differ) and merge-joins them at the
//     router — a two-shard join.
//   - SingleSource fetches the source fragment from its owner, then
//     broadcasts it: every shard propagates the fragment and fills its
//     own node range of the output vector — in place for in-process
//     shards (sliceWriter), through a returned slice and a copy for
//     remote ones.
//   - TopK/SourceTop broadcast the same fragment but gather per-shard
//     local top-k lists — k-pruning inside each shard — and merge them.
//     Each shard's list is its true local top-k under the global
//     deterministic order and shards partition the node space, so the
//     merged head equals the unsharded top-k exactly.
//   - SingleSourceBatch groups sources by owner shard and runs the
//     groups as units, observing ctx between units.
//
// Per-shard metadata is full-size, so any shard can propagate any
// fragment with the exact single-index arithmetic; answers are
// bitwise-identical to the unsharded reference.
//
// The zero Querier is not valid; use New.
type Querier struct {
	man     *Manifest
	clients []Client
	n       int
	fanout  []*metrics.Histogram
	errs    []*metrics.Counter
}

var _ sling.Querier = (*Querier)(nil)

// New validates the manifest against the client set and returns the
// router. reg receives the per-shard fan-out instruments (nil for a
// private registry). The Querier takes ownership of the clients: Close
// closes them all.
func New(m *Manifest, clients []Client, reg *metrics.Registry) (*Querier, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(clients) != len(m.Shards) {
		return nil, fmt.Errorf("shard: %d clients for %d shards", len(clients), len(m.Shards))
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	q := &Querier{
		man:     m,
		clients: clients,
		n:       m.Nodes,
		fanout:  make([]*metrics.Histogram, len(clients)),
		errs:    make([]*metrics.Counter, len(clients)),
	}
	for i := range clients {
		id := metrics.L("shard", strconv.Itoa(i))
		q.fanout[i] = reg.Histogram(MetricFanout, "Latency of per-shard scatter/gather calls.", metrics.LatencyBuckets, id)
		q.errs[i] = reg.Counter(MetricErrors, "Failed per-shard scatter/gather calls.", id)
	}
	return q, nil
}

// shardOf returns the index of the shard owning node u.
func (q *Querier) shardOf(u sling.NodeID) int {
	return sort.Search(len(q.man.Shards), func(i int) bool {
		return q.man.Shards[i].Hi > int(u)
	})
}

func (q *Querier) checkNode(u sling.NodeID) error {
	if int(u) < 0 || int(u) >= q.n {
		return fmt.Errorf("%w: node %d not in [0,%d)", sling.ErrNodeRange, u, q.n)
	}
	return nil
}

func (q *Querier) checkNodes(us []sling.NodeID) error {
	for _, u := range us {
		if err := q.checkNode(u); err != nil {
			return err
		}
	}
	return nil
}

// groupByShard buckets source indexes by owner shard, so batch fragment
// fetches hit shards in locality order.
func (q *Querier) groupByShard(us []sling.NodeID) [][]int {
	byShard := make([][]int, len(q.clients))
	for i, u := range us {
		s := q.shardOf(u)
		byShard[s] = append(byShard[s], i)
	}
	return byShard
}

// observe records one shard call's latency and outcome.
func (q *Querier) observe(shard int, start time.Time, err error) {
	q.fanout[shard].ObserveSince(start)
	if err != nil {
		q.errs[shard].Inc()
	}
}

// fragment fetches u's fragment from its owner shard.
func (q *Querier) fragment(ctx context.Context, u sling.NodeID) (*sling.Fragment, error) {
	s := q.shardOf(u)
	start := time.Now()
	f, err := q.clients[s].Fragment(ctx, u)
	q.observe(s, start, err)
	return f, err
}

// scatter runs fn once per shard concurrently and returns the
// lowest-shard error, so a multi-shard failure reports deterministically.
// The last shard runs on the calling goroutine: one goroutine per extra
// shard, none at all for a single shard.
func (q *Querier) scatter(fn func(i int, s ShardInfo) error) error {
	last := len(q.clients) - 1
	errs := make([]error, len(q.clients))
	var wg sync.WaitGroup
	for i := 0; i < last; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i, q.man.Shards[i])
		}(i)
	}
	errs[last] = fn(last, q.man.Shards[last])
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SimRank joins the two endpoints' fragments at the router.
func (q *Querier) SimRank(ctx context.Context, u, v sling.NodeID) (float64, error) {
	if err := core.CtxErr(ctx); err != nil {
		return 0, err
	}
	if err := q.checkNode(u); err != nil {
		return 0, err
	}
	if err := q.checkNode(v); err != nil {
		return 0, err
	}
	var fu, fv *sling.Fragment
	var err error
	if fu, err = q.fragment(ctx, u); err != nil {
		return 0, err
	}
	if u == v {
		fv = fu
	} else if fv, err = q.fragment(ctx, v); err != nil {
		return 0, err
	}
	return sling.JoinFragments(fu, fv), nil
}

// singleSource is the shared scatter/gather core of SingleSource and
// SingleSourceBatch: fetch u's fragment, broadcast it, and have every
// shard fill its range of out.
func (q *Querier) singleSource(ctx context.Context, u sling.NodeID, out []float64) ([]float64, error) {
	f, err := q.fragment(ctx, u)
	if err != nil {
		return nil, err
	}
	if cap(out) < q.n {
		out = make([]float64, q.n)
	}
	out = out[:q.n]
	err = q.scatter(func(i int, s ShardInfo) error {
		start := time.Now()
		serr := q.sourceSlice(ctx, i, f, s, out[s.Lo:s.Hi])
		q.observe(i, start, serr)
		return serr
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sourceSlice fills dst with shard i's slice of f's score vector:
// directly when the client is a sliceWriter, otherwise through
// SourceSlice and a copy.
func (q *Querier) sourceSlice(ctx context.Context, i int, f *sling.Fragment, s ShardInfo, dst []float64) error {
	if w, ok := q.clients[i].(sliceWriter); ok {
		return w.SourceSliceInto(ctx, f, s.Lo, s.Hi, dst)
	}
	scores, err := q.clients[i].SourceSlice(ctx, f, s.Lo, s.Hi)
	if err != nil {
		return err
	}
	if len(scores) != len(dst) {
		return fmt.Errorf("shard %d returned %d scores for range [%d,%d)", i, len(scores), s.Lo, s.Hi)
	}
	copy(dst, scores)
	return nil
}

func (q *Querier) SingleSource(ctx context.Context, u sling.NodeID, out []float64) ([]float64, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	if err := q.checkNode(u); err != nil {
		return nil, err
	}
	return q.singleSource(ctx, u, out)
}

// SingleSourceBatch validates every source first, then serves them
// grouped by owner shard (fragment fetches hit shards in locality
// order), observing ctx between units.
func (q *Querier) SingleSourceBatch(ctx context.Context, us []sling.NodeID) ([][]float64, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	if err := q.checkNodes(us); err != nil {
		return nil, err
	}
	rows := make([][]float64, len(us))
	for _, idxs := range q.groupByShard(us) {
		for _, i := range idxs {
			if err := core.CtxErr(ctx); err != nil {
				return nil, err
			}
			row, err := q.singleSource(ctx, us[i], nil)
			if err != nil {
				return nil, err
			}
			rows[i] = row
		}
	}
	return rows, nil
}

// topMerge broadcasts u's fragment, gathers each shard's k-pruned local
// top list over its own range, and merges. skip < 0 keeps every node.
func (q *Querier) topMerge(ctx context.Context, u sling.NodeID, k int, skip sling.NodeID) ([]sling.Scored, error) {
	f, err := q.fragment(ctx, u)
	if err != nil {
		return nil, err
	}
	lists := make([][]sling.Scored, len(q.clients))
	err = q.scatter(func(i int, s ShardInfo) error {
		start := time.Now()
		top, serr := q.clients[i].TopSlice(ctx, f, k, skip, s.Lo, s.Hi)
		q.observe(i, start, serr)
		lists[i] = top
		return serr
	})
	if err != nil {
		return nil, err
	}
	return sling.MergeTop(lists, k), nil
}

func (q *Querier) TopK(ctx context.Context, u sling.NodeID, k int) ([]sling.Scored, error) {
	if k <= 0 {
		return nil, nil
	}
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	if err := q.checkNode(u); err != nil {
		return nil, err
	}
	return q.topMerge(ctx, u, k, u)
}

func (q *Querier) SourceTop(ctx context.Context, u sling.NodeID, limit int) ([]sling.Scored, error) {
	if limit <= 0 {
		return nil, nil
	}
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	if err := q.checkNode(u); err != nil {
		return nil, err
	}
	return q.topMerge(ctx, u, limit, -1)
}

// Meta reports the deployment from the manifest; Bytes is the summed
// per-shard index footprint.
func (q *Querier) Meta() sling.QuerierMeta {
	var bytes int64
	for _, s := range q.man.Shards {
		bytes += s.Bytes
	}
	return sling.QuerierMeta{
		Name:  "sharded",
		Nodes: q.n,
		C:     q.man.C,
		Eps:   q.man.Eps,
		Bytes: bytes,
	}
}

// Close closes every shard client and returns the errors joined.
func (q *Querier) Close() error {
	var errs []error
	for _, c := range q.clients {
		if err := c.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
