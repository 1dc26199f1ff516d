package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// castReply is the part of a POST /cast answer castload checks.
type castReply struct {
	Valid bool       `json:"valid"`
	Stats replyStats `json:"stats"`
}

// replyStats are castd's per-request streaming counters: exact and
// machine-independent for a given document and pair.
type replyStats struct {
	ElementsVisited int64 `json:"elementsVisited"`
	ElementsSkimmed int64 `json:"elementsSkimmed"`
	AutomatonSteps  int64 `json:"automatonSteps"`
	SymbolsSkipped  int64 `json:"symbolsSkipped"`
	SubsumedSkips   int64 `json:"subsumedSkips"`
	DisjointRejects int64 `json:"disjointRejects"`
	ValuesChecked   int64 `json:"valuesChecked"`
	MaxDepth        int64 `json:"maxDepth"`
}

// statSums accumulates replyStats over the successful responses of a phase.
type statSums struct {
	n                               int64
	visited, skimmed, steps, values int64
}

func (s *statSums) add(st replyStats) {
	s.n++
	s.visited += st.ElementsVisited
	s.skimmed += st.ElementsSkimmed
	s.steps += st.AutomatonSteps
	s.values += st.ValuesChecked
}

func (s *statSums) merge(o statSums) {
	s.n += o.n
	s.visited += o.visited
	s.skimmed += o.skimmed
	s.steps += o.steps
	s.values += o.values
}

// runner drives one workload against its running castd nodes.
type runner struct {
	w     *workload
	in    *inputs
	nodes []*node
	// castPath[pair] is the POST /cast path of pair.
	castPath []string
	// hashes[pair] are the content hashes castd gave the pair's schemas.
	hashes [][2]string

	fails     *failures
	attempted atomic.Int64

	// seen holds the first stats answered for each (document, pair); every
	// later answer must repeat them, whichever node or path served it.
	seenMu sync.Mutex
	seen   map[reqSpec]replyStats

	// tr is non-nil while the fixed-rate phase of a traced run is on.
	tr *tracer
}

// failures counts and prints the requests that went wrong.
type failures struct {
	mu  sync.Mutex
	n   int64
	out io.Writer
}

// maxPrintedFailures caps the failure lines one run prints; the count
// covers them all.
const maxPrintedFailures = 50

func (f *failures) add(workload, phase string, s reqSpec, kind, detail string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if f.n <= maxPrintedFailures {
		fmt.Fprintf(f.out, "castload: %s %s: document %d pair %d: %s: %s\n", workload, phase, s.doc, s.pair, kind, detail)
	}
}

func (f *failures) count() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

var phaseNames = [numPhases]string{"warm-up", "fixed-rate", "closed-loop"}

// send POSTs request s's document over c and decodes the answer.
func (r *runner) send(c *conn, s reqSpec, traceparent string, buf *bytes.Buffer) (castReply, int, error) {
	var reply castReply
	status, err := c.do(http.MethodPost, r.castPath[s.pair], r.in.docs[s.doc].body, traceparent, buf)
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(buf.Bytes(), &reply)
	}
	return reply, status, err
}

// check judges one answer: status 200, the oracle's verdict, and stats
// equal to every earlier answer for the same document and pair. It counts
// the attempt and records any failure.
func (r *runner) check(phase string, s reqSpec, reply castReply, status int, err error, body []byte) bool {
	r.attempted.Add(1)
	want := r.in.docs[s.doc].valid
	fail := func(kind, detail string) bool {
		r.fails.add(r.w.name, phase, s, kind, detail)
		return false
	}
	var nerr net.Error
	switch {
	case err != nil && errors.As(err, &nerr) && nerr.Timeout():
		return fail("timeout", err.Error())
	case err != nil && status == 0:
		return fail("transport", err.Error())
	case status != http.StatusOK:
		return fail("status", fmt.Sprintf("%d %s", status, bytes.TrimSpace(body)))
	case err != nil:
		return fail("body", err.Error())
	case reply.Valid != want:
		return fail("verdict", fmt.Sprintf("castd said valid=%v, the oracle valid=%v", reply.Valid, want))
	}
	r.seenMu.Lock()
	first, ok := r.seen[s]
	if !ok {
		r.seen[s] = reply.Stats
	}
	r.seenMu.Unlock()
	if ok && first != reply.Stats {
		return fail("stats", fmt.Sprintf("%+v, earlier %+v", reply.Stats, first))
	}
	return true
}

// windowFor is the length of the windows a phase of length d is cut into:
// 1 s, or a quarter of a phase shorter than 4 s. Time metrics are the
// median over windows, which a burst of interference from outside castd
// and castload (another tenant's job, time stolen from a virtual CPU)
// moves far less than it moves a figure taken over the whole phase.
func windowFor(d time.Duration) time.Duration { return min(time.Second, d/4) }

// sample is the state of a phase at one window boundary.
type sample struct {
	castdCPU, selfCPU time.Duration
	count             int64 // answers so far (open loop) or good answers (closed loop)
}

// sampleWindows records a sample now and at each of the next n boundaries
// of windows of length every, and sends them on the returned channel.
func (r *runner) sampleWindows(n int, every time.Duration, count func() int64) <-chan samples {
	out := make(chan samples, 1)
	go func() {
		res := samples{every: every}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for i := 0; ; i++ {
			s := sample{count: count()}
			var err error
			if s.castdCPU, err = r.castdCPU(); err == nil {
				s.selfCPU, err = procCPU("self")
			}
			if err != nil {
				res.err = err
				break
			}
			res.s = append(res.s, s)
			if i == n {
				break
			}
			<-tick.C
		}
		out <- res
	}()
	return out
}

type samples struct {
	s     []sample
	every time.Duration // window length
	err   error
}

// perWindow returns f of each window, skipping windows f rejects.
func (ss samples) perWindow(f func(a, b sample) (float64, bool)) []float64 {
	var out []float64
	for i := 1; i < len(ss.s); i++ {
		if v, ok := f(ss.s[i-1], ss.s[i]); ok {
			out = append(out, v)
		}
	}
	return out
}

// phaseStats are the per-request records of one open-loop phase. Slot i
// is written by the one goroutine that handles request i and read after
// all of them have finished.
type phaseStats struct {
	released int
	window   time.Duration
	windows  int             // whole windows in the phase
	rel      []time.Duration // release time since the phase start
	lag      []time.Duration // release time minus the scheduled time
	lat      []float64       // ms from release to response; +Inf on failure
	answered atomic.Int64    // responses with a status line, failed or not
	mu       sync.Mutex
	sums     statSums
	samples  samples
}

// windowed returns the median over windows of the q-quantile of v (in
// milliseconds) over the requests released in each window.
func (ps *phaseStats) windowed(v func(i int) float64, q float64) float64 {
	per := make([][]float64, ps.windows)
	for i := 0; i < ps.released; i++ {
		if w := int(ps.rel[i] / ps.window); w < ps.windows {
			per[w] = append(per[w], v(i))
		}
	}
	var qs []float64
	for _, vals := range per {
		if len(vals) > 0 {
			sort.Float64s(vals)
			qs = append(qs, percentile(vals, q))
		}
	}
	return median(qs)
}

// openLoop releases rate × dur requests on 1 ms ticks, each tick releasing
// every request due by then, into per-node send queues that the node's
// connections drain. The generator never waits for a response, so a stall
// delays every request queued behind it, and latency runs from release.
func (r *runner) openLoop(ctx context.Context, phase int, dur time.Duration) *phaseStats {
	rate := r.w.rate
	n := int(math.Round(rate * dur.Seconds()))
	ps := &phaseStats{
		rel: make([]time.Duration, n),
		lag: make([]time.Duration, n),
		lat: make([]float64, n),
	}
	queues := make([]chan int, len(r.nodes))
	for i := range queues {
		queues[i] = make(chan int, n) // sized to the phase: the generator never blocks
	}
	ps.window = windowFor(dur)
	ps.windows = int(dur / ps.window)
	t0 := time.Now()
	sampled := r.sampleWindows(ps.windows, ps.window, ps.answered.Load)
	var wg sync.WaitGroup
	for ni, nd := range r.nodes {
		for _, c := range nd.conns {
			wg.Add(1)
			go func(ni int, c *conn) {
				defer wg.Done()
				r.openWorker(ctx, phase, ni, c, queues[ni], ps, t0)
			}(ni, c)
		}
	}

	tick := time.NewTicker(time.Millisecond)
	released := 0
release:
	for released < n {
		now := time.Since(t0)
		due := int(now.Seconds()*rate) + 1
		if due > n {
			due = n
		}
		for ; released < due; released++ {
			ps.rel[released] = now
			ps.lag[released] = now - time.Duration(float64(released)/rate*float64(time.Second))
			queues[released%len(queues)] <- released
		}
		if released == n || now > dur+time.Second {
			break
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			break release
		}
	}
	tick.Stop()
	ps.released = released
	for _, q := range queues {
		close(q)
	}
	ps.samples = <-sampled
	wg.Wait()
	if r.tr != nil {
		r.tr.drain(r.nodes)
	}
	return ps
}

func (r *runner) openWorker(ctx context.Context, phase, ni int, c *conn, queue <-chan int, ps *phaseStats, t0 time.Time) {
	nd := r.nodes[ni]
	buf := new(bytes.Buffer)
	var sums statSums
	defer func() {
		ps.mu.Lock()
		ps.sums.merge(sums)
		ps.mu.Unlock()
	}()
	var jobs <-chan string // trace ids to fetch from this node; nil when untraced
	if r.tr != nil {
		jobs = r.tr.jobs[ni]
	}
	for {
		select {
		case tid := <-jobs:
			r.tr.fetch(c, nd.base, tid)
		case i, ok := <-queue:
			if !ok {
				return
			}
			s := r.in.spec(phase, i)
			var tp string
			var rs *span
			if r.tr != nil {
				rs = r.tr.start(i, nd.base, t0.Add(ps.rel[i]))
				tp = "00-" + rs.TraceID + "-" + rs.SpanID + "-01"
			}
			reply, status, err := r.send(c, s, tp, buf)
			done := time.Since(t0)
			if status != 0 {
				ps.answered.Add(1)
			}
			if r.check(phaseNames[phase], s, reply, status, err, buf.Bytes()) {
				ps.lat[i] = float64(done-ps.rel[i]) / float64(time.Millisecond)
				sums.add(reply.Stats)
			} else {
				ps.lat[i] = math.Inf(1)
			}
			if rs != nil {
				rs.DurationNS = int64(done - ps.rel[i])
				if i%traceEvery == 0 {
					r.tr.fetch(c, nd.base, rs.TraceID)
					r.tr.post(ni, rs.TraceID)
				}
			}
		}
	}
}

// closedLoop runs every connection back to back for dur and samples, at
// each window boundary, the answers so far that arrived with status 200
// and the expected verdict.
func (r *runner) closedLoop(ctx context.Context, dur time.Duration) samples {
	var next, good atomic.Int64
	deadline := time.Now().Add(dur)
	every := windowFor(dur)
	sampled := r.sampleWindows(int(dur/every), every, good.Load)
	var wg sync.WaitGroup
	for _, nd := range r.nodes {
		for _, c := range nd.conns {
			wg.Add(1)
			go func(c *conn) {
				defer wg.Done()
				buf := new(bytes.Buffer)
				for time.Now().Before(deadline) && ctx.Err() == nil {
					s := r.in.spec(phaseClosed, int(next.Add(1)-1))
					reply, status, err := r.send(c, s, "", buf)
					if r.check(phaseNames[phaseClosed], s, reply, status, err, buf.Bytes()) && time.Now().Before(deadline) {
						good.Add(1)
					}
				}
			}(c)
		}
	}
	ss := <-sampled
	wg.Wait()
	return ss
}
