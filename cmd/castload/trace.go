package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// traceEvery is the share of traced requests whose castd spans are
// fetched: one in traceEvery.
const traceEvery = 10

// span is one timed operation in the span file: castload's own spans and
// castd's, in castd's SpanData shape plus the node that recorded it.
type span struct {
	TraceID    string          `json:"traceId"`
	SpanID     string          `json:"spanId"`
	ParentID   string          `json:"parentId,omitempty"`
	Name       string          `json:"name"`
	Start      time.Time       `json:"start"`
	DurationNS int64           `json:"durationNs"`
	Node       string          `json:"node,omitempty"`
	Attrs      json.RawMessage `json:"attrs,omitempty"`
}

func (s *span) end() time.Time { return s.Start.Add(time.Duration(s.DurationNS)) }

// tracer records the fixed-rate phase of a traced run: a castload.request
// span per request, sent to castd as a W3C traceparent so castd's
// "http cast" root becomes its child, and the spans castd retained for one
// request in traceEvery, fetched from every node right after the answer.
type tracer struct {
	reqs []span        // one per request of the phase, written by its worker
	jobs []chan string // per node: trace ids to fetch on its connections

	mu    sync.Mutex
	castd map[string][]span // trace id → castd spans, all nodes
}

// merged counts the sampled requests whose castd spans were found, of
// sampled in all.
func (t *tracer) merged() (found, sampled int) {
	for i := 0; i < len(t.reqs); i += traceEvery {
		sampled++
		if len(t.castd[t.reqs[i].TraceID]) > 0 {
			found++
		}
	}
	return found, sampled
}

func newTracer(requests, nodes int) *tracer {
	t := &tracer{reqs: make([]span, requests), castd: map[string][]span{}}
	for i := 0; i < nodes; i++ {
		// Sized to every fetch of the phase, so posting never blocks.
		t.jobs = append(t.jobs, make(chan string, requests/traceEvery+1))
	}
	return t
}

func (t *tracer) start(i int, node string, at time.Time) *span {
	s := &t.reqs[i]
	*s = span{
		TraceID: fmt.Sprintf("%016x%016x", rand.Uint64(), rand.Uint64()),
		SpanID:  fmt.Sprintf("%016x", rand.Uint64()|1),
		Name:    "castload.request",
		Start:   at,
		Node:    node,
	}
	return s
}

// post queues a fetch of trace id on every node but from, so each node's
// spans are fetched over that node's own connections.
func (t *tracer) post(from int, id string) {
	for ni, q := range t.jobs {
		if ni != from {
			q <- id
		}
	}
}

// drain fetches what the workers left queued when the phase ended.
func (t *tracer) drain(nodes []*node) {
	for ni, q := range t.jobs {
		for len(q) > 0 {
			t.fetch(nodes[ni].conns[0], nodes[ni].base, <-q)
		}
	}
}

// fetch reads one trace from a node's /debug/traces/{id}. castd retains a
// trace when its root span ends, before the buffered answer is flushed,
// so a trace is there by the time its answer arrived. A node the request
// never reached answers 404, which is expected.
func (t *tracer) fetch(c *conn, node, id string) {
	body, _, err := getOn(c, "/debug/traces/"+id)
	if err != nil {
		return
	}
	var td struct {
		Spans []span `json:"spans"`
	}
	if json.Unmarshal(body, &td) != nil {
		return
	}
	for i := range td.Spans {
		td.Spans[i].Node = node
	}
	t.mu.Lock()
	t.castd[id] = append(t.castd[id], td.Spans...)
	t.mu.Unlock()
}

// spans returns castload's request spans and the castd spans merged.
func (t *tracer) spans() []span {
	out := append([]span(nil), t.reqs...)
	ids := make([]string, 0, len(t.castd))
	for id := range t.castd {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		out = append(out, t.castd[id]...)
	}
	return out
}

// layerTimes derives the per-layer times from the fetched castd spans:
// self time of "http cast" (its duration minus the union of its
// children), and the mean durations of registry.lookup, peer.fetch and
// peer.proxy. A layer absent from every trace is left out.
func (t *tracer) layerTimes() map[string]float64 {
	var self, lookup, fetch, proxy []float64
	for _, spans := range t.castd {
		children := map[string][]*span{}
		for i := range spans {
			children[spans[i].ParentID] = append(children[spans[i].ParentID], &spans[i])
		}
		for i := range spans {
			s := &spans[i]
			d := float64(s.DurationNS)
			switch s.Name {
			case "http cast":
				self = append(self, float64(selfTime(s, children[s.SpanID])))
			case "registry.lookup":
				lookup = append(lookup, d)
			case "peer.fetch":
				fetch = append(fetch, d)
			case "peer.proxy":
				proxy = append(proxy, d)
			}
		}
	}
	out := map[string]float64{}
	put := func(name string, ns []float64, unit time.Duration) {
		if len(ns) > 0 {
			var sum float64
			for _, v := range ns {
				sum += v
			}
			out[name] = sum / float64(len(ns)) / float64(unit)
		}
	}
	put("server.http_self_us", self, time.Microsecond)
	put("registry.lookup_us", lookup, time.Microsecond)
	put("server.peer_fetch_ms", fetch, time.Millisecond)
	put("server.peer_proxy_ms", proxy, time.Millisecond)
	return out
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent *span, children []*span) time.Duration {
	ps, pe := parent.Start, parent.end()
	sort.Slice(children, func(i, j int) bool { return children[i].Start.Before(children[j].Start) })
	var covered time.Duration
	var curS, curE time.Time
	for _, c := range children {
		s, e := c.Start, c.end()
		if s.Before(ps) {
			s = ps
		}
		if e.After(pe) {
			e = pe
		}
		if !e.After(s) {
			continue
		}
		if curE.IsZero() || s.After(curE) {
			covered += curE.Sub(curS)
			curS, curE = s, e
		} else if e.After(curE) {
			curE = e
		}
	}
	covered += curE.Sub(curS)
	return parent.end().Sub(parent.Start) - covered
}
