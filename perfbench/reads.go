package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"sling"
	"sling/internal/rng"
	"sling/internal/server"
)

type pairResp struct {
	U, V  int64
	Score float64
}

type topkResp struct {
	U       int64
	Results []server.ScoredNode
}

// readReqs turns read ops and their send offsets (seconds) into HTTP
// requests; those due before warm seconds are warm-up.
func readReqs(ops []readOp, sched []float64, warm float64, k int) []httpReq {
	reqs := make([]httpReq, len(sched))
	for i, t := range sched {
		reqs[i] = httpReq{due: time.Duration(t * float64(time.Second)), method: http.MethodGet, path: readPath(ops[i], k), measured: t >= warm}
	}
	return reqs
}

func readPath(op readOp, k int) string {
	if op.topk {
		return fmt.Sprintf("/topk?u=%d&k=%d", op.u, k)
	}
	return fmt.Sprintf("/simrank?u=%d&v=%d", op.u, op.v)
}

// closedReads runs a closed loop of senders sending the read mix drawn
// from src until until, checks the answers as checkReads does, and
// returns the rate at which reads completed and how many were sent.
func (r *run) closedReads(c *http.Client, base string, src *rng.Source, z *zipf, senders int, until time.Time, ref sling.Querier, stride int) (float64, int) {
	var ops []readOp
	from := time.Now()
	res := sendClosed(c, base, until, senders, func() httpReq {
		op := readMix(src, z, r.cfg.Mix.PairShare, 1)[0]
		ops = append(ops, op)
		return httpReq{method: http.MethodGet, path: readPath(op, r.cfg.Mix.TopK)}
	})
	checkReads(r, ops, res, ref, stride, r.cfg.Mix.TopK)
	return closedRate(res, from, until), len(res)
}

// checkReads validates every response (status, JSON shape, scores in
// range) and compares every stride-th one bitwise with ref, a backend
// built with the same options. JSON round-trips float64 exactly, so any
// difference is a wrong answer. A nil ref checks validity only.
func checkReads(r *run, ops []readOp, res []httpRes, ref sling.Querier, stride, k int) {
	ctx := context.Background()
	for i, rs := range res {
		r.attempted.Add(1)
		op := ops[i]
		if rs.err != nil || rs.status != http.StatusOK {
			r.fail("read %d: status %d err %v body %.80s", i, rs.status, rs.err, rs.body)
			continue
		}
		exact := ref != nil && i%stride == 0
		if !op.topk {
			var p pairResp
			if err := json.Unmarshal(rs.body, &p); err != nil || p.U != int64(op.u) || p.V != int64(op.v) || !validScore(p.Score) {
				r.fail("pair %d (%d,%d): bad response %.80s", i, op.u, op.v, rs.body)
				continue
			}
			if exact {
				want, err := ref.SimRank(ctx, op.u, op.v)
				if err != nil || math.Float64bits(want) != math.Float64bits(p.Score) {
					r.fail("pair (%d,%d): served %v, reference %v (%v)", op.u, op.v, p.Score, want, err)
				}
			}
			continue
		}
		var t topkResp
		if err := json.Unmarshal(rs.body, &t); err != nil || t.U != int64(op.u) || len(t.Results) > k {
			r.fail("topk %d (%d): bad response %.80s", i, op.u, rs.body)
			continue
		}
		ok := true
		for _, e := range t.Results {
			ok = ok && validScore(e.Score)
		}
		if !ok {
			r.fail("topk %d (%d): score out of range", i, op.u)
			continue
		}
		if exact {
			want, err := ref.TopK(ctx, op.u, k)
			if err != nil || !sameTop(want, t.Results) {
				r.fail("topk %d: served %v, reference %v (%v)", op.u, t.Results, want, err)
			}
		}
	}
}

// validScore accepts a finite score within the ±ε overshoot the raw
// index may show around [0, 1].
func validScore(s float64) bool { return s >= -0.5 && s <= 1.5 }

func sameTop(want []sling.Scored, got []server.ScoredNode) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		if int64(want[i].Node) != got[i].Node || math.Float64bits(want[i].Score) != math.Float64bits(got[i].Score) {
			return false
		}
	}
	return true
}

// readStats splits measured read latencies (µs) by kind.
type readStats struct {
	pair, topk, all, late samples
	completed             int
	// span is seconds from the first measured due time to the last
	// measured completion.
	span float64
}

func splitReads(reqs []httpReq, ops []readOp, res []httpRes) (s readStats) {
	first, last := time.Duration(-1), time.Duration(0)
	defer func() { s.span = (last - first).Seconds() }()
	for i, q := range reqs {
		if !q.measured {
			continue
		}
		rs := res[i]
		if first < 0 {
			first = q.due
		}
		last = max(last, q.due+rs.lat)
		lat := micros(rs.lat)
		s.late = append(s.late, micros(rs.late))
		if rs.err != nil || rs.status != http.StatusOK {
			// A failed request misses any latency limit.
			s.all = append(s.all, math.Inf(1))
			continue
		}
		s.completed++
		s.all = append(s.all, lat)
		if ops[i].topk {
			s.topk = append(s.topk, lat)
		} else {
			s.pair = append(s.pair, lat)
		}
	}
	return s
}
