package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// Shares of a run's measured time: warm-up, fixed-rate (open loop) and
// closed loop. At 33 s they give the 5 s / 20 s / 8 s of the design.
const (
	warmShare   = 0.15
	openShare   = 0.60
	closedShare = 0.25
)

// Harness validity: a fixed-rate phase whose release lateness p99 (median
// over windows) exceeds maxGenLagP99, or that released fewer requests than
// its schedule, described castload rather than castd. It is repeated, up
// to phaseAttempts times in all, so that one stretch of an overloaded host
// does not cost the run; after that the run reports no numbers.
const (
	maxGenLagP99  = 5 * time.Millisecond
	phaseAttempts = 3
)

// errHarnessInvalid marks a run whose generator could not keep its
// schedule, so its latencies would describe castload, not castd.
var errHarnessInvalid = errors.New("harness invalid")

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

type runOptions struct {
	castd  string        // castd binary
	total  time.Duration // measured time: warm-up + fixed rate + closed loop
	setups int           // set-ups per run; setup_s is their median
	traced bool
	out    io.Writer // failure lines
}

// runResult is one run of one workload.
type runResult struct {
	traced    bool
	metrics   map[string]float64
	samples   int // latencies in the fixed-rate phase
	attempted int64
	failed    int64
	spans     []span
}

// runWorkload sets up castd, drives the four phases and derives every
// metric. An error means the run produced no numbers (set-up failure or
// an invalid harness); request failures are counted in the result instead.
func runWorkload(ctx context.Context, w *workload, in *inputs, o runOptions) (*runResult, error) {
	r := &runner{w: w, in: in, fails: &failures{out: o.out}, seen: map[reqSpec]replyStats{}}
	defer func() { stopNodes(r.nodes) }()

	var setupS []float64
	for k := 0; k < o.setups; k++ {
		stopNodes(r.nodes)
		r.nodes = nil
		d, err := r.setup(ctx, o.castd)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, d.Seconds())
	}
	if w.nodes > 1 {
		if err := r.probePaths(); err != nil {
			return nil, fmt.Errorf("%s path probe: %w", w.name, err)
		}
	}

	warm := time.Duration(float64(o.total) * warmShare)
	open := time.Duration(float64(o.total) * openShare)
	closed := time.Duration(float64(o.total) * closedShare)

	r.openLoop(ctx, phaseWarm, warm)

	n := int(math.Round(w.rate * open.Seconds()))
	var (
		ps            *phaseStats
		tr            *tracer
		before, after scrape
		lagP99        float64
	)
	for attempt := 1; ; attempt++ {
		var err error
		if before, err = r.scrapeAll(); err != nil {
			return nil, err
		}
		if o.traced {
			r.tr = newTracer(n, len(r.nodes))
		}
		ps = r.openLoop(ctx, phaseOpen, open)
		tr, r.tr = r.tr, nil
		if after, err = r.scrapeAll(); err != nil {
			return nil, err
		}
		lagP99 = ps.windowed(func(i int) float64 { return ms(ps.lag[i]) }, 0.99)
		switch {
		case ctx.Err() != nil:
			return nil, ctx.Err()
		case ps.released < n:
			err = fmt.Errorf("%s: %w: the fixed-rate phase released %d of %d requests", w.name, errHarnessInvalid, ps.released, n)
		case lagP99 > ms(maxGenLagP99):
			err = fmt.Errorf("%s: %w: release lateness p99 %.2f ms > %v", w.name, errHarnessInvalid, lagP99, maxGenLagP99)
		}
		if err == nil {
			break
		}
		if attempt == phaseAttempts {
			return nil, err
		}
		fmt.Fprintf(o.out, "castload: %v; repeating the fixed-rate phase\n", err)
	}

	goodput := r.closedLoop(ctx, closed)
	if ps.samples.err != nil || goodput.err != nil {
		return nil, errors.Join(ps.samples.err, goodput.err)
	}

	res := &runResult{traced: o.traced, metrics: map[string]float64{}}
	m := res.metrics
	if o.traced {
		lm, spans, err := r.replay(ctx)
		if err != nil {
			return nil, err
		}
		for k, v := range lm {
			m[k] = v
		}
		for k, v := range tr.layerTimes() {
			m[k] = v
		}
		res.spans = append(tr.spans(), spans...)
		if found, sampled := tr.merged(); found < sampled*9/10 {
			return nil, fmt.Errorf("%s: castd spans found for only %d of %d sampled requests", w.name, found, sampled)
		}
	}
	var hwm int64
	for _, nd := range r.nodes {
		b, err := procHWM(pidOf(nd))
		if err != nil {
			return nil, err
		}
		hwm += b
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	latency := func(i int) float64 { return ps.lat[i] }
	m["setup_s"] = median(setupS)
	m["p50_ms"] = ps.windowed(latency, 0.50)
	m["p90_ms"] = ps.windowed(latency, 0.90)
	lat := append([]float64(nil), ps.lat...)
	sort.Float64s(lat)
	res.samples = len(lat)
	m["p99_ms"] = percentile(lat, 0.99)
	m["p999_ms"] = percentile(lat, 0.999)
	m["goodput_rps"] = median(goodput.perWindow(func(a, b sample) (float64, bool) {
		return float64(b.count-a.count) / goodput.every.Seconds(), true
	}))
	// perRequest is the median over windows of a CPU time per answer, in µs.
	perRequest := func(cpu func(sample) time.Duration) float64 {
		return median(ps.samples.perWindow(func(a, b sample) (float64, bool) {
			d := b.count - a.count
			return float64(cpu(b)-cpu(a)) / float64(time.Microsecond) / float64(d), d > 0
		}))
	}
	m["cpu_us_per_req"] = perRequest(func(s sample) time.Duration { return s.castdCPU })
	m["rss_mb"] = float64(hwm) / 1e6

	res.attempted = r.attempted.Load()
	res.failed = r.fails.count()
	m["error_rate"] = float64(res.failed) / float64(res.attempted)

	sums := ps.sums
	if sums.n > 0 {
		m["stream.elements_visited"] = float64(sums.visited) / float64(sums.n)
		m["stream.elements_skimmed"] = float64(sums.skimmed) / float64(sums.n)
		m["stream.automaton_steps"] = float64(sums.steps) / float64(sums.n)
		m["stream.values_checked"] = float64(sums.values) / float64(sums.n)
		// Integer sums keep every stream.* value exact whatever order the
		// answers arrived in.
		m["stream.skip_ratio"] = float64(sums.skimmed) / float64(sums.visited+sums.skimmed)
	}

	d := func(name string) float64 { return after[name] - before[name] }
	// meanUS is a histogram's mean over the phase in microseconds.
	meanUS := func(sum, count string) float64 {
		if c := d(count); c > 0 {
			return d(sum) / c * 1e6
		}
		return 0
	}
	perK := func(v float64) float64 { return v * 1000 / float64(n) }
	m["server.request_us"] = meanUS(`http_request_duration_seconds_sum{route="cast"}`, `http_request_duration_seconds_count{route="cast"}`)
	m["server.cast_us"] = meanUS("cast_duration_seconds_sum", "cast_duration_seconds_count")
	m["server.queue_wait_us"] = meanUS("castd_queue_wait_seconds_sum", "castd_queue_wait_seconds_count")
	m["server.shed_per_kreq"] = perK(d("castd_shed_total"))
	m["server.peer_fetch_per_kreq"] = perK(d("castd_peer_fetch_total"))
	m["server.peer_proxy_per_kreq"] = perK(d("castd_peer_forwards_total"))
	m["server.peer_errors_per_kreq"] = perK(d("castd_peer_errors_total"))
	hits, misses := d("registry_hits_total"), d("registry_misses_total")
	m["registry.hit_ratio"] = 1
	if hits+misses > 0 {
		m["registry.hit_ratio"] = hits / (hits + misses)
	}
	m["registry.compiles_per_kreq"] = perK(d("registry_compiles_total"))
	m["registry.evictions_per_kreq"] = perK(d("registry_evictions_total"))
	m["registry.coalesces_per_kreq"] = perK(d("registry_coalesces_total"))
	// Over the whole run, set-up included: single-node workloads compile
	// only there.
	if c := after["registry_compile_seconds_count"]; c > 0 {
		m["registry.compile_ms"] = after["registry_compile_seconds_sum"] / c * 1e3
	}
	m["resilience.retries_per_kreq"] = perK(d("castd_peer_retries_total"))
	m["resilience.hedges_per_kreq"] = perK(d("castd_peer_hedges_total"))
	m["resilience.breaker_opens"] = after.matching("castd_breaker_transitions_total", `to="open"`) -
		before.matching("castd_breaker_transitions_total", `to="open"`)
	m["telemetry.traces_retained_per_kreq"] = perK(d("castd_traces_retained_total"))
	m["castload.gen_lag_p99_ms"] = lagP99
	m["castload.client_cpu_us_per_req"] = perRequest(func(s sample) time.Duration { return s.selfCPU })
	var latSum float64
	for _, l := range lat {
		latSum += l
	}
	m["castload.wire_us"] = latSum/float64(len(lat))*1e3 - m["server.request_us"]
	return res, nil
}

// setup launches the workload's castd nodes and readies them: healthy,
// every schema registered on every node and, for single-node workloads,
// each pair compiled once through GET /pairs. It returns the time from
// launch to ready.
func (r *runner) setup(ctx context.Context, bin string) (time.Duration, error) {
	start := time.Now()
	nodes, err := startNodes(bin, r.w.nodes, r.w.connsPerNode)
	if err != nil {
		return 0, err
	}
	r.nodes = nodes
	hashes := make([][][2]string, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for ni, nd := range nodes {
		wg.Add(1)
		go func(ni int, nd *node) {
			defer wg.Done()
			if errs[ni] = nd.waitHealthy(ctx); errs[ni] != nil {
				return
			}
			for p := 0; p < r.w.pairs; p++ {
				var h [2]string
				if h[0], errs[ni] = nd.register(srcID(p), r.in.src[p]); errs[ni] != nil {
					return
				}
				if h[1], errs[ni] = nd.register(dstID(p), r.in.dst[p]); errs[ni] != nil {
					return
				}
				hashes[ni] = append(hashes[ni], h)
			}
		}(ni, nd)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	if r.w.compileAtSetup {
		for p := 0; p < r.w.pairs; p++ {
			if _, _, err := nodes[0].get("/pairs/" + srcID(p) + "/" + dstID(p)); err != nil {
				return 0, err
			}
		}
	}
	d := time.Since(start)

	r.hashes = hashes[0]
	r.castPath = nil
	for p := 0; p < r.w.pairs; p++ {
		r.castPath = append(r.castPath, "/cast/"+srcID(p)+"/"+dstID(p))
	}
	return d, nil
}

// scrapeAll is every node's /metrics, summed sample by sample.
func (r *runner) scrapeAll() (scrape, error) {
	sum := scrape{}
	for _, nd := range r.nodes {
		s, err := nd.scrape()
		if err != nil {
			return nil, err
		}
		for k, v := range s {
			sum[k] += v
		}
	}
	return sum, nil
}

// castdCPU is the CPU time of all castd nodes together.
func (r *runner) castdCPU() (time.Duration, error) {
	var total time.Duration
	for _, nd := range r.nodes {
		c, err := procCPU(pidOf(nd))
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// probePaths checks, on a fresh cluster, that one document gets the same
// verdict and stats whether the pair's owner served it, a non-owner
// proxied it to the owner, or a non-owner served it from an artifact it
// fetched. For one cold pair after another it sends the document to each
// node in turn, labelling each answer by the peer counters it moved, until
// one pair has answered on all three paths; check compares every answer
// with the first for the same document and pair.
func (r *runner) probePaths() error {
	const maxPairs = 16
	buf := new(bytes.Buffer)
	for k := 0; k < maxPairs; k++ {
		s := reqSpec{doc: 0, pair: int32(r.w.pairs - 1 - k)} // coldest pairs first
		paths := map[string]bool{}
		for step := 0; step < 3; step++ {
			ni := (k + step) % len(r.nodes)
			nd := r.nodes[ni]
			before, err := nd.scrape()
			if err != nil {
				return err
			}
			reply, status, err := r.send(nd.conns[0], s, "", buf)
			if !r.check("path probe", s, reply, status, err, buf.Bytes()) {
				continue
			}
			after, err := nd.scrape()
			if err != nil {
				return err
			}
			switch {
			case after["castd_peer_forwards_total"] > before["castd_peer_forwards_total"]:
				paths["proxy"] = true
			case after["castd_peer_fetch_total"] > before["castd_peer_fetch_total"]:
				paths["fetch"] = true
			default:
				paths["local"] = true
			}
		}
		if len(paths) == 3 {
			return nil
		}
	}
	return fmt.Errorf("no pair of %d answered through owner, proxy and fetched artifact", maxPairs)
}
