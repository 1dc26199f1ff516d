package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricClass says where a metric is reported.
type metricClass int

const (
	// endToEnd metrics come from untraced runs and carry a bound in
	// BENCHMARK.json.
	endToEnd metricClass = iota
	// perLayer metrics come from traced runs and carry no bound.
	perLayer
	// info metrics are printed for context only: they are not in
	// BENCHMARK.json, because they are zero on some workloads, need both
	// an untraced and a traced run, or do not repeat within any bound.
	info
)

type metricDef struct {
	name, unit, better string
	class              metricClass
}

// metricDefs is every metric castload computes, in report order. The
// end-to-end and per-layer rows must match BENCHMARK.json exactly; main
// refuses to run otherwise.
var metricDefs = []metricDef{
	{"setup_s", "s", "lower", endToEnd},
	{"p50_ms", "ms", "lower", info},
	{"p90_ms", "ms", "lower", endToEnd},
	{"goodput_rps", "req/s", "higher", info},
	{"cpu_us_per_req", "us", "lower", info},
	{"rss_mb", "MB", "lower", endToEnd},
	{"error_rate", "ratio", "lower", info},
	{"p99_ms", "ms", "lower", info},
	{"p999_ms", "ms", "lower", info},

	{"xmlscan.tokenize_ns_per_byte", "ns/B", "lower", perLayer},
	{"stream.cast_us", "us", "lower", perLayer},
	{"stream.allocs_per_doc", "count", "lower", perLayer},
	{"stream.elements_visited", "count", "lower", perLayer},
	{"stream.elements_skimmed", "count", "higher", perLayer},
	{"stream.automaton_steps", "count", "lower", perLayer},
	{"stream.values_checked", "count", "lower", perLayer},
	{"stream.skip_ratio", "ratio", "higher", perLayer},
	{"server.request_us", "us", "lower", perLayer},
	{"server.cast_us", "us", "lower", perLayer},
	{"server.http_self_us", "us", "lower", perLayer},
	{"server.queue_wait_us", "us", "lower", perLayer},
	{"server.shed_per_kreq", "1/kreq", "lower", perLayer},
	{"server.peer_fetch_per_kreq", "1/kreq", "lower", perLayer},
	{"server.peer_proxy_per_kreq", "1/kreq", "lower", perLayer},
	{"server.peer_errors_per_kreq", "1/kreq", "lower", perLayer},
	{"server.peer_fetch_ms", "ms", "lower", info},
	{"server.peer_proxy_ms", "ms", "lower", info},
	{"registry.lookup_us", "us", "lower", perLayer},
	{"registry.hit_ratio", "ratio", "higher", perLayer},
	{"registry.compiles_per_kreq", "1/kreq", "lower", perLayer},
	{"registry.evictions_per_kreq", "1/kreq", "lower", perLayer},
	{"registry.coalesces_per_kreq", "1/kreq", "lower", perLayer},
	{"registry.compile_ms", "ms", "lower", perLayer},
	{"artifact.decode_ms", "ms", "lower", perLayer},
	{"artifact.blob_bytes", "B", "lower", perLayer},
	{"resilience.retries_per_kreq", "1/kreq", "lower", perLayer},
	{"resilience.hedges_per_kreq", "1/kreq", "lower", perLayer},
	{"resilience.breaker_opens", "count", "lower", perLayer},
	{"telemetry.traces_retained_per_kreq", "1/kreq", "lower", perLayer},
	{"castload.gen_lag_p99_ms", "ms", "lower", perLayer},
	{"castload.client_cpu_us_per_req", "us", "lower", perLayer},
	{"castload.wire_us", "us", "lower", perLayer},
	{"castload.trace_overhead_pct", "%", "lower", info},
}

func lookupMetric(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// benchSpec is BENCHMARK.json: the workloads, metrics and bounds the
// benchmark is judged by.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadSpec reads root/BENCHMARK.json and checks that it names exactly the
// workloads and the end-to-end and per-layer metrics castload computes,
// with the same units and directions.
func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	listed := map[string]bool{}
	check := func(name, unit, better string, class metricClass) error {
		d, ok := lookupMetric(name)
		switch {
		case !ok:
			return fmt.Errorf("BENCHMARK.json: castload does not compute metric %q", name)
		case d.unit != unit || d.better != better || d.class != class:
			return fmt.Errorf("BENCHMARK.json: metric %q is %s/%s here but %s/%s in castload",
				name, unit, better, d.unit, d.better)
		}
		listed[name] = true
		return nil
	}
	for _, m := range spec.EndToEnd {
		if err := check(m.Name, m.Unit, m.Better, endToEnd); err != nil {
			return nil, err
		}
	}
	for _, m := range spec.PerLayer {
		if err := check(m.Name, m.Unit, m.Better, perLayer); err != nil {
			return nil, err
		}
	}
	for _, d := range metricDefs {
		if d.class != info && !listed[d.name] {
			return nil, fmt.Errorf("BENCHMARK.json: metric %q is missing", d.name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		return nil, fmt.Errorf("BENCHMARK.json lists %d workloads, castload has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil {
			return nil, fmt.Errorf("BENCHMARK.json: unknown workload %q", w.Name)
		}
	}
	return &spec, nil
}

// bound returns the end-to-end metric's bound, or NaN for other metrics.
func (s *benchSpec) bound(name string) float64 {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return math.NaN()
}

// percentile is the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the method of Python's
// statistics.quantiles(values, n=4) (the "exclusive" method), which is how
// the spread of repeated runs is judged.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
