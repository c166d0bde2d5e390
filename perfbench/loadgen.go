package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// served is one server under test on a loopback listener.
type served struct {
	srv  *http.Server
	base string
	done chan struct{}
}

func serveHTTP(h http.Handler) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{
		srv:  &http.Server{Handler: h, ReadTimeout: 10 * time.Second, WriteTimeout: 60 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		s.srv.Serve(ln)
		close(s.done)
	}()
	return s, nil
}

// close shuts the server down and waits for its serve loop to return.
func (s *served) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.done
}

// newClient returns an HTTP client holding at most two connections, so
// the generator never offers more concurrency than two sending
// goroutines. It never consults proxy settings: all traffic is loopback.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2,
		MaxConnsPerHost:     2,
		DisableCompression:  true,
	}}
}

// waitReady polls /healthz until the server answers 200: the moment the
// first request can be served.
func waitReady(c *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready: %v", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// httpReq is one scheduled request. due is its offset from the start of
// the schedule; requests due before the warm-up ends are validated but
// not measured.
type httpReq struct {
	due      time.Duration
	method   string
	path     string
	body     []byte
	measured bool
}

type httpRes struct {
	lat    time.Duration // completion minus due time (send time in a closed loop)
	late   time.Duration // send minus due time: how late the generator ran
	done   time.Time     // completion
	status int
	body   []byte
	err    error
}

// timerSlack is how early a sender wakes for a due request: sleeps
// overshoot by up to about a millisecond, so waking early keeps sends
// centred on their due times.
const timerSlack = time.Millisecond

// sendOpen sends reqs on their schedule from senders goroutines sharing
// one queue (an open loop: a request is due whether or not earlier ones
// have completed) and returns one result per request. A request whose
// due time passed while both senders were busy is timed from its due
// time, so a stall also charges the requests queued behind it; one a
// sender slept for is timed from its send, so timer overshoot is not
// charged to the server. late records how far each send missed its due
// time either way.
func sendOpen(c *http.Client, base string, start time.Time, reqs []httpReq, senders int, tr *tracer) []httpRes {
	res := make([]httpRes, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				q := &reqs[i]
				due := start.Add(q.due)
				slept := false
				if d := time.Until(due) - timerSlack; d > 0 {
					time.Sleep(d)
					slept = true
				}
				sent := time.Now()
				origin := due
				if slept || sent.Before(due) {
					origin = sent
				}
				res[i] = do(c, base, q, tr)
				res[i].done = time.Now()
				res[i].lat = res[i].done.Sub(origin)
				res[i].late = sent.Sub(due)
			}
		}()
	}
	wg.Wait()
	return res
}

// sendClosed sends requests drawn from next back to back from senders
// goroutines (a closed loop: a sender sends its next request when its
// last one completes) until until, and returns one result per request
// drawn, in draw order. next is called under a lock, so it may draw from
// one seeded source: the requests are a prefix of the same stream however
// the senders interleave.
func sendClosed(c *http.Client, base string, until time.Time, senders int, next func() httpReq) []httpRes {
	var (
		mu  sync.Mutex
		res []*httpRes
		wg  sync.WaitGroup
	)
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				mu.Lock()
				q := next()
				rs := &httpRes{}
				res = append(res, rs)
				mu.Unlock()
				sent := time.Now()
				*rs = do(c, base, &q, nil)
				rs.done = time.Now()
				rs.lat = rs.done.Sub(sent)
			}
		}()
	}
	wg.Wait()
	out := make([]httpRes, len(res))
	for i, rs := range res {
		out[i] = *rs
	}
	return out
}

// closedRate is the rate at which requests completed between from and
// until.
func closedRate(res []httpRes, from, until time.Time) float64 {
	n := 0
	for _, rs := range res {
		if rs.err == nil && rs.status == http.StatusOK && !rs.done.Before(from) && !rs.done.After(until) {
			n++
		}
	}
	return float64(n) / until.Sub(from).Seconds()
}

func do(c *http.Client, base string, q *httpReq, tr *tracer) httpRes {
	ctx, end := tr.begin(context.Background(), "gen"+q.pathOnly())
	defer end()
	var body io.Reader
	if q.body != nil {
		body = bytes.NewReader(q.body)
	}
	req, err := http.NewRequestWithContext(ctx, q.method, base+q.path, body)
	if err != nil {
		return httpRes{err: err}
	}
	inject(ctx, req)
	resp, err := c.Do(req)
	if err != nil {
		return httpRes{err: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return httpRes{status: resp.StatusCode, body: b, err: err}
}

// pathOnly strips the query string: "/simrank?u=1&v=2" -> "/simrank".
func (q *httpReq) pathOnly() string {
	if i := strings.IndexByte(q.path, '?'); i >= 0 {
		return q.path[:i]
	}
	return q.path
}
