package stream

import "fmt"

// cancelCheckEvery is the amortization granularity of cancellation checks:
// the streaming walker polls ctx.Done() once per this many tokens, so the
// hot path pays one counter decrement per token and one channel poll per
// interval, and a canceled validation stops within one interval of work.
const cancelCheckEvery = 256

// Limits bounds the resources one streaming validation may consume.
// Zero values are unlimited; the daemon sets both from its flags so a
// hostile document — arbitrarily deep nesting, or an endless element
// stream — is rejected with a typed error instead of exhausting the stack
// of open frames or running unbounded.
type Limits struct {
	// MaxDepth caps element nesting: a document may hold at most MaxDepth
	// simultaneously open elements (the root counts as one). Skimmed
	// elements count too — subsumption skips validation work, not the
	// depth-proportional frame bookkeeping an adversary would target.
	MaxDepth int
	// MaxElements caps the total number of elements (validated plus
	// skimmed) one document may carry.
	MaxElements int64
}

// LimitError reports a document that exceeded a configured resource limit.
// It is a verdict about the request, not the schema pair: the serving
// layer maps it to 422, distinct from both invalid-document verdicts and
// timeouts.
type LimitError struct {
	// Kind is "depth" or "elements".
	Kind string
	// Limit is the configured bound that was exceeded.
	Limit int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("stream: document exceeds the configured %s limit (%d)", e.Kind, e.Limit)
}

// checkDepth enforces lim.MaxDepth against the count of open elements.
func (lim Limits) checkDepth(open int) error {
	if lim.MaxDepth > 0 && open > lim.MaxDepth {
		return &LimitError{Kind: "depth", Limit: int64(lim.MaxDepth)}
	}
	return nil
}

// checkElements enforces lim.MaxElements against the running element count.
func (lim Limits) checkElements(n int64) error {
	if lim.MaxElements > 0 && n > lim.MaxElements {
		return &LimitError{Kind: "elements", Limit: lim.MaxElements}
	}
	return nil
}
