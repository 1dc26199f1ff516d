package revalidate

import (
	"context"
	"io"

	"repro/internal/stream"
	"repro/internal/telemetry"
)

// StreamStats counts the work of a streaming validation. It is Stats, the
// one work record: a stream fills ElementsSkimmed and ValuesChecked where
// a tree cast fills TextNodesVisited, and WorkSavedRatio is defined over
// the elements a stream sees go by.
type StreamStats = Stats

// ValidateStream fully validates one XML document read from r, without
// building a document tree: memory is proportional to element depth. For
// revalidation with source-schema knowledge use a StreamCaster.
func (s *Schema) ValidateStream(r io.Reader) (StreamStats, error) {
	return s.ValidateStreamContext(context.Background(), r, Limits{})
}

// ValidateStreamContext is ValidateStream with cooperative cancellation
// and resource limits, mirroring StreamCaster.ValidateContext: the walker
// polls ctx.Done() with amortized checks, and a document exceeding lim's
// depth or element bounds is rejected with a *LimitError. The zero Limits
// is unlimited. Full validation serves untrusted input more often than
// the cast path does, so governed entry points matter at least as much
// here.
func (s *Schema) ValidateStreamContext(ctx context.Context, r io.Reader, lim Limits) (StreamStats, error) {
	return stream.NewValidator(s.s).ValidateContext(ctx, r, lim)
}

// StreamCaster performs schema cast validation over a token stream: the
// incoming document is known to satisfy the source schema, and validity
// under the target schema is decided as tokens arrive. Subtrees whose type
// pair is subsumed are skimmed (consumed with no validation work); a
// disjoint pair rejects immediately; content models conclude early through
// the immediate decision automata. Memory is proportional to document
// depth — the natural fit for the message-broker setting the paper
// motivates.
type StreamCaster struct {
	src, dst *Schema
	c        *stream.Caster
}

// NewStreamCaster preprocesses a (source, target) schema pair for
// streaming casts. Both schemas must come from the same Universe.
func NewStreamCaster(src, dst *Schema) (*StreamCaster, error) {
	if err := sameUniverse(src, dst); err != nil {
		return nil, err
	}
	c, err := stream.NewCaster(src.s, dst.s)
	if err != nil {
		return nil, err
	}
	return &StreamCaster{src: src, dst: dst, c: c}, nil
}

// Validate reads one XML document from r — assumed valid under the source
// schema — and decides validity under the target schema.
func (c *StreamCaster) Validate(r io.Reader) (StreamStats, error) {
	return c.c.Validate(r)
}

// ValidateContext is Validate with cooperative cancellation and resource
// limits: the stream walker polls ctx.Done() with amortized checks (every
// few hundred tokens), so a canceled or deadline-expired cast stops within
// one check interval, and a document exceeding lim's depth or element
// bounds is rejected with a *LimitError. The zero Limits is unlimited.
// This is the entry point a daemon should use: it bounds what one hostile
// document or one slow client can cost.
func (c *StreamCaster) ValidateContext(ctx context.Context, r io.Reader, lim Limits) (StreamStats, error) {
	return c.c.ValidateContext(ctx, r, lim)
}

// ValidateTraced is Validate in trace mode: alongside the verdict and
// statistics it returns the decision trace — one event per skim, reject and
// descend, in document order. Trace mode allocates; use Validate on hot
// paths.
func (c *StreamCaster) ValidateTraced(r io.Reader) (StreamStats, []TraceEvent, error) {
	tr := &telemetry.Trace{}
	st, err := c.c.ValidateTrace(r, tr)
	return st, fromTraceEvents(tr), err
}

// ValidateTracedContext is ValidateTraced with the cancellation and limit
// behavior of ValidateContext.
func (c *StreamCaster) ValidateTracedContext(ctx context.Context, r io.Reader, lim Limits) (StreamStats, []TraceEvent, error) {
	tr := &telemetry.Trace{}
	st, err := c.c.ValidateTraceContext(ctx, r, tr, lim)
	return st, fromTraceEvents(tr), err
}

// ValidateAll validates one document per reader concurrently on a pool of
// workers sharing this caster — the broker shape: many connections, one
// preprocessed schema pair. workers <= 0 uses one worker per logical CPU.
// The returned slice holds one verdict per reader (nil when valid), and
// the StreamStats are the batch totals, merged from per-worker counters
// with Add. Each reader is consumed by exactly one worker, and a
// reader that fails mid-stream fails only its own slot (with the reader's
// error wrapped), never its siblings.
func (c *StreamCaster) ValidateAll(rs []io.Reader, workers int) ([]error, StreamStats) {
	return c.ValidateAllContext(context.Background(), rs, workers, Limits{})
}

// ValidateAllContext is ValidateAll with fault containment and resource
// governance: every document runs under the cancellation and limit
// behavior of ValidateContext, each slot's validation is panic-guarded (a
// panicking worker yields a *PanicError verdict for its own slot, never
// crashes the pool), and a canceled batch marks every unclaimed slot with
// the context's cause instead of consuming its reader.
func (c *StreamCaster) ValidateAllContext(ctx context.Context, rs []io.Reader, workers int, lim Limits) ([]error, StreamStats) {
	return validateAll(ctx, len(rs), workers, func(i int) (Stats, error) {
		return c.c.ValidateContext(ctx, rs[i], lim)
	})
}
