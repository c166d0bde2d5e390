package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"sling/internal/graph"
)

// Queries over the disk-resident index (Section 5.4).
//
// A disk query differs from an in-memory one in a single step: how node
// v's stored entries H(v) are obtained. fetch makes that choice — typed
// views over a memory mapping, a hit in the entry cache, or two
// positioned reads decoded into the scratch — and every later step is
// the in-memory code: gatherFrom for the Section 5.2/5.3 transformations,
// joinScore for Algorithm 3, propagate and the sparse consumers for
// Algorithm 6. Disk answers are therefore bitwise-identical to memory
// answers. The disk index takes the same Scratch and SourceScratch as
// the in-memory one (pooled by its Meta index's ScratchPool), and its
// batch runs on the shared ForEach fan-out. os.File.ReadAt is
// goroutine-safe, so no query takes a lock.

// fetch returns node v's stored entries. In mapped mode it slices the
// typed views directly — zero copies, zero allocations. Otherwise it
// reads the keys and vals ranges from disk into the given buffers,
// consulting (and on miss, populating) the entry cache when one is
// enabled. All paths hand the caller a read-only view.
func (d *DiskIndex) fetch(v graph.NodeID, s *Scratch, keys *[]uint64, vals *[]float64) ([]uint64, []float64, error) {
	lo, hi := d.meta.off[v], d.meta.off[v+1]
	if d.mapped {
		return d.mkeys[lo:hi], d.mvals[lo:hi], nil
	}
	if d.cache != nil {
		if k, val, ok := d.cache.Get(int32(v)); ok {
			return k, val, nil
		}
	}
	cnt := int(hi - lo)
	need := cnt * 16
	if cap(s.raw) < need {
		s.raw = make([]byte, need)
	}
	raw := s.raw[:need]
	if _, err := d.f.ReadAt(raw[:8*cnt], d.entriesOff+lo*8); err != nil {
		return nil, nil, fmt.Errorf("core: disk index key read for node %d: %w", v, err)
	}
	if _, err := d.f.ReadAt(raw[8*cnt:], d.valsOff+lo*8); err != nil {
		return nil, nil, fmt.Errorf("core: disk index value read for node %d: %w", v, err)
	}
	k, val := (*keys)[:0], (*vals)[:0]
	le := binary.LittleEndian
	for i := 0; i < cnt; i++ {
		k = append(k, le.Uint64(raw[8*i:]))
	}
	for i := 0; i < cnt; i++ {
		val = append(val, math.Float64frombits(le.Uint64(raw[8*cnt+8*i:])))
	}
	*keys, *vals = k, val
	if d.cache != nil {
		d.cache.Put(int32(v), k, val)
	}
	return k, val, nil
}

// gather is Index.gather over disk-resident entries: node v's stored
// entries are fetched into fetchK/fetchV, then transformed into
// bufK/bufV exactly as in memory.
func (d *DiskIndex) gather(v graph.NodeID, s *Scratch, fetchK *[]uint64, fetchV *[]float64, bufK *[]uint64, bufV *[]float64) ([]uint64, []float64, error) {
	stored, storedVals, err := d.fetch(v, s, fetchK, fetchV)
	if err != nil {
		return nil, nil, err
	}
	keys, vals := d.meta.gatherFrom(v, stored, storedVals, s, bufK, bufV)
	return keys, vals, nil
}

// SimRank answers a single-pair query with two positioned reads (or two
// zero-copy view slices in mapped mode). A nil scratch allocates one.
func (d *DiskIndex) SimRank(u, v graph.NodeID, s *Scratch) (float64, error) {
	if s == nil {
		s = d.meta.NewScratch()
	}
	ku, vu, err := d.gather(u, s, &s.fka, &s.fva, &s.ka, &s.va)
	if err != nil {
		return 0, err
	}
	kv, vv, err := d.gather(v, s, &s.fkb, &s.fvb, &s.kb, &s.vb)
	if err != nil {
		return 0, err
	}
	return joinScore(ku, vu, kv, vv, d.meta.d), nil
}

// SingleSource answers a single-source query from disk: one positioned
// read fetches H(u), then the Algorithm 6 propagation runs as in memory
// (it needs only the graph and the memory-resident d̃ values). A nil
// scratch allocates one.
func (d *DiskIndex) SingleSource(u graph.NodeID, ss *SourceScratch, out []float64) ([]float64, error) {
	if ss == nil {
		ss = d.meta.NewSourceScratch()
	}
	keys, vals, err := d.gather(u, ss.q, &ss.q.fka, &ss.q.fva, &ss.q.ka, &ss.q.va)
	if err != nil {
		return nil, err
	}
	return d.meta.SingleSourceFrom(keys, vals, ss, out), nil
}

// TopK returns the k nodes most similar to u (excluding u itself) in
// descending score order, from one disk single-source propagation and a
// size-k heap selection over the nodes it touched; only the k-element
// result is allocated. A nil scratch allocates one.
func (d *DiskIndex) TopK(u graph.NodeID, k int, ss *SourceScratch) ([]TopEntry, error) {
	if k <= 0 {
		return nil, nil
	}
	return d.top(u, k, u, ss)
}

// SourceTop returns the limit highest-scoring nodes for source u (u
// itself included, unlike TopK) in descending score order, ties broken
// by ascending node ID.
func (d *DiskIndex) SourceTop(u graph.NodeID, limit int, ss *SourceScratch) ([]TopEntry, error) {
	if limit <= 0 {
		return nil, nil
	}
	return d.top(u, limit, -1, ss)
}

func (d *DiskIndex) top(u graph.NodeID, k int, skip graph.NodeID, ss *SourceScratch) ([]TopEntry, error) {
	if ss == nil {
		ss = d.meta.NewSourceScratch()
	}
	keys, vals, err := d.gather(u, ss.q, &ss.q.fka, &ss.q.fva, &ss.q.ka, &ss.q.va)
	if err != nil {
		return nil, err
	}
	d.meta.propagate(keys, vals, ss)
	return ss.top(k, skip, 0, d.meta.g.NumNodes()), nil
}

// FragmentOf is Index.FragmentOf over disk-resident entries: one
// positioned read (or a zero-copy view slice) plus the same gather
// transformations. A nil scratch allocates one.
func (d *DiskIndex) FragmentOf(u graph.NodeID, s *Scratch) (keys []uint64, vals, dvals []float64, err error) {
	if s == nil {
		s = d.meta.NewScratch()
	}
	gk, gv, err := d.gather(u, s, &s.fka, &s.fva, &s.ka, &s.va)
	if err != nil {
		return nil, nil, nil, err
	}
	keys, vals, dvals = copyFragment(gk, gv, d.meta.d)
	return keys, vals, dvals, nil
}

// SingleSourceBatch answers one single-source query per source in us,
// fanned across workers goroutines (workers <= 0 means 1) by ForEach.
// Row i equals SingleSource(us[i], ...) exactly at any worker count.
// The first I/O error aborts the batch, and a cancelled ctx (nil means
// never) stops the fan-out between sources.
func (d *DiskIndex) SingleSourceBatch(ctx context.Context, us []graph.NodeID, workers int) ([][]float64, error) {
	out := make([][]float64, len(us))
	err := ForEach(ctx, len(us), workers, func() func(int) error {
		ss := d.meta.NewSourceScratch()
		return func(i int) (err error) {
			out[i], err = d.SingleSource(us[i], ss, nil)
			return err
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
