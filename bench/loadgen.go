package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"cad/internal/alert"
	"cad/internal/cluster"
)

// client is one generator connection to the entry node.
type client struct {
	hc   *http.Client
	base string
}

// newClient returns a client pinned to a single keep-alive connection.
func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is one finished request of the timed window.
type outcome struct {
	job
	// sched is the open-loop send time (zero in a closed loop), sent when
	// the request actually left, done when its answer was fully read.
	sched, sent, done time.Time
	status            int
	err               error
	// node is the X-CAD-Node header: the cluster member that served it.
	node string
	// body is the answer, kept only when the caller asked for it.
	body []byte
}

func (o *outcome) ok() bool { return o.err == nil && o.status/100 == 2 }

// latency is measured from the scheduled send time in an open loop, so a
// stall is charged to every request queued behind it.
func (o *outcome) latency() time.Duration {
	if !o.sched.IsZero() {
		return o.done.Sub(o.sched)
	}
	return o.done.Sub(o.sent)
}

// request builds the HTTP request of j against the entry node.
func (c *client) request(w *workload, j job, body []byte) (*http.Request, error) {
	url := c.base + "/v1/streams/" + w.streams[j.stream].id
	if j.ncols == 0 {
		return http.NewRequest(http.MethodGet, url+j.read, nil)
	}
	return http.NewRequest(http.MethodPost, url+"/ingest", bytes.NewReader(body))
}

// do sends one request and reads the whole answer.
func (c *client) do(w *workload, j job, body []byte, keep bool) outcome {
	o := outcome{job: j}
	req, err := c.request(w, j, body)
	if err != nil {
		o.err = err
		return o
	}
	o.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		o.err, o.done = err, time.Now()
		return o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	o.status, o.err = resp.StatusCode, err
	o.node = resp.Header.Get(cluster.HeaderNode)
	if keep {
		o.body = data
	}
	return o
}

// encodeJob renders the body of an ingest job (nil for reads).
func encodeJob(w *workload, j job) []byte {
	if j.ncols == 0 {
		return nil
	}
	return encodeColumns(nil, w.streams[j.stream].series, j.col, j.ncols)
}

// split deals jobs onto the connections by stream, keeping their order.
func split(jobs []job, conns int) [][]job {
	out := make([][]job, conns)
	for _, j := range jobs {
		out[j.stream%conns] = append(out[j.stream%conns], j)
	}
	return out
}

// closedLoop runs each connection's jobs back to back until window has
// elapsed since the start or the jobs run out. A producer goroutine per
// connection encodes the next body while the current request is in
// flight, so encoding stays off the measured loop.
func closedLoop(w *workload, jobs []job, clients []*client, window time.Duration, keep bool) (outs []outcome, start time.Time) {
	per := split(jobs, len(clients))
	results := make([][]outcome, len(clients))
	var wg sync.WaitGroup
	start = time.Now()
	deadline := start.Add(window)
	for g, c := range clients {
		type ready struct {
			j    job
			body []byte
		}
		// Two bodies in flight: the one being sent and the next one.
		ch := make(chan ready, 2)
		stop := make(chan struct{})
		wg.Add(2)
		go func(mine []job) {
			defer wg.Done()
			defer close(ch)
			for _, j := range mine {
				select {
				case ch <- ready{j, encodeJob(w, j)}:
				case <-stop:
					return
				}
			}
		}(per[g])
		go func(g int, c *client) {
			defer wg.Done()
			defer close(stop)
			for r := range ch {
				if !time.Now().Before(deadline) {
					return
				}
				results[g] = append(results[g], c.do(w, r.j, r.body, keep))
			}
		}(g, c)
	}
	wg.Wait()
	for _, rs := range results {
		outs = append(outs, rs...)
	}
	return outs, start
}

// loopStats describes how well an open-loop generator kept its schedule.
type loopStats struct {
	// late holds, per request, how long after its scheduled time it left.
	late []time.Duration
	// backlogMax is the most requests ever waiting for a connection.
	backlogMax int
}

// openLoop dispatches jobs (sorted by send time) on schedule for window,
// whether or not earlier requests have finished: each connection takes its
// streams' requests from a queue, so a stall leaves later requests waiting
// and their latency counts from when they were due.
func openLoop(w *workload, jobs []job, clients []*client, window time.Duration, keep bool) (outs []outcome, start time.Time, ls loopStats) {
	type queued struct {
		j     job
		body  []byte
		sched time.Time
	}
	var due []job
	for _, j := range jobs {
		if j.at >= window {
			break
		}
		due = append(due, j)
	}
	per := split(due, len(clients))
	queues := make([]chan queued, len(clients))
	results := make([][]outcome, len(clients))
	var wg sync.WaitGroup
	for g, c := range clients {
		// Sized to every request this connection can be handed, so the
		// dispatcher never blocks and the schedule holds.
		queues[g] = make(chan queued, len(per[g]))
		wg.Add(1)
		go func(g int, c *client) {
			defer wg.Done()
			for q := range queues[g] {
				o := c.do(w, q.j, q.body, keep)
				o.sched = q.sched
				results[g] = append(results[g], o)
			}
		}(g, c)
	}
	start = time.Now()
	for _, j := range due {
		sched := start.Add(j.at)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		q := queues[j.stream%len(clients)]
		q <- queued{j: j, body: encodeJob(w, j), sched: sched}
		ls.backlogMax = max(ls.backlogMax, len(q))
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	for _, rs := range results {
		for _, o := range rs {
			ls.late = append(ls.late, o.sent.Sub(o.sched))
		}
		outs = append(outs, rs...)
	}
	return outs, start, ls
}

// receiver is the webhook endpoint cadserve pushes alert events to.
type receiver struct {
	srv *http.Server
	ln  net.Listener
	wg  sync.WaitGroup

	mu     sync.Mutex
	events []received
	bad    int
}

// received is one delivered event and when it arrived.
type received struct {
	ev alert.Event
	at time.Time
}

func startReceiver() (*receiver, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &receiver{ln: ln}
	r.srv = &http.Server{Handler: http.HandlerFunc(r.handle), ReadHeaderTimeout: 5 * time.Second}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		_ = r.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return r, nil
}

func (r *receiver) url() string { return fmt.Sprintf("http://%s/hook", r.ln.Addr()) }

func (r *receiver) handle(w http.ResponseWriter, req *http.Request) {
	at := time.Now()
	data, err := io.ReadAll(req.Body)
	var ev alert.Event
	if err == nil {
		ev, err = alert.DecodeEvent(data)
	}
	r.mu.Lock()
	if err != nil {
		r.bad++
	} else {
		r.events = append(r.events, received{ev: ev, at: at})
	}
	r.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// take returns the events received so far and forgets them.
func (r *receiver) take() []received {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.events
	r.events = nil
	return out
}

// undecodable counts the bodies that were not alert events.
func (r *receiver) undecodable() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bad
}

// peek returns a copy of the events received so far.
func (r *receiver) peek() []received {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]received(nil), r.events...)
}

func (r *receiver) close() {
	_ = r.srv.Close() // closing a listener that already failed is harmless
	r.wg.Wait()
}
