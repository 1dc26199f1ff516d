package revalidate

import (
	"context"

	"repro/internal/baseline"
	"repro/internal/cast"
	"repro/internal/telemetry"
	"repro/internal/update"
	"repro/internal/work"
	"repro/internal/xmltree"
)

// Caster revalidates documents known to conform to a source schema against
// a target schema, using the precomputed subsumption/disjointness
// relations and content-model immediate decision automata of the paper.
// A Caster is immutable after construction and safe for concurrent use.
type Caster struct {
	src, dst *Schema
	engine   *cast.Engine
}

// CasterOption tunes caster construction.
type CasterOption func(*cast.Options)

// WithoutContentIDA disables the §4 immediate decision automata for
// content models (children label strings are then scanned fully with the
// target automaton, as the paper's modified-Xerces prototype did). An
// ablation switch; the default is on.
func WithoutContentIDA() CasterOption {
	return func(o *cast.Options) { o.DisableContentIDA = true }
}

// WithoutRelations disables the subsumed/disjoint subtree skipping,
// reducing the caster to a full top-down revalidation. An ablation switch.
func WithoutRelations() CasterOption {
	return func(o *cast.Options) { o.DisableRelations = true }
}

// NewCaster preprocesses a (source, target) schema pair. Both schemas must
// come from the same Universe. Preprocessing cost depends only on schema
// sizes, never on the documents to be validated.
func NewCaster(src, dst *Schema, opts ...CasterOption) (*Caster, error) {
	if err := sameUniverse(src, dst); err != nil {
		return nil, err
	}
	var o cast.Options
	for _, opt := range opts {
		opt(&o)
	}
	engine, err := cast.New(src.s, dst.s, o)
	if err != nil {
		return nil, err
	}
	return &Caster{src: src, dst: dst, engine: engine}, nil
}

// Source returns the caster's source schema.
func (c *Caster) Source() *Schema { return c.src }

// Target returns the caster's target schema.
func (c *Caster) Target() *Schema { return c.dst }

// Stats reports the work performed by one validation: the one work record
// every engine fills, tree and stream alike (StreamStats is the same type).
// The node counters are a machine-independent cost measure (the paper's
// Table 3 metric); a tree cast's share of a document left untouched is
// 1 − NodesVisited/Document.NodeCount. Add merges records, taking the max
// of MaxDepth.
type Stats = work.Counters

// TraceEvent is one recorded decision of a traced validation: which action
// the engine took where, and for which (source, target) type pair. Action
// is one of "descend", "skip", "reject", "content", "simple", "full".
type TraceEvent struct {
	Action string `json:"action"`
	// Path is the XPath-like location of the element the decision concerns.
	Path string `json:"path"`
	// Dewey is the element's Dewey decimal number ("0.2.1"; "ε" for the
	// root).
	Dewey string `json:"dewey"`
	// Depth is the element depth (root = 0).
	Depth int `json:"depth"`
	// SrcType and DstType name the (τ, τ') pair the decision was made for.
	SrcType string `json:"srcType,omitempty"`
	DstType string `json:"dstType,omitempty"`
	// Detail is a human-readable elaboration.
	Detail string `json:"detail,omitempty"`
}

func fromTraceEvents(tr *telemetry.Trace) []TraceEvent {
	events := tr.Events()
	out := make([]TraceEvent, len(events))
	for i, e := range events {
		out[i] = TraceEvent{
			Action: string(e.Action), Path: e.Path, Dewey: e.Dewey, Depth: e.Depth,
			SrcType: e.SrcType, DstType: e.DstType, Detail: e.Detail,
		}
	}
	return out
}

// Validate decides whether doc — assumed valid under the source schema —
// is valid under the target schema. It returns nil when valid.
func (c *Caster) Validate(doc *Document) error {
	_, err := c.engine.Validate(doc.root)
	return err
}

// ValidateContext is ValidateStats with cooperative cancellation: the walk
// polls ctx.Done() with amortized checks (every few hundred elements), so
// a canceled or deadline-expired validation returns promptly with an error
// wrapping the context's cause while the hot path stays lock-free. Use it
// wherever a validation serves a request with a deadline.
func (c *Caster) ValidateContext(ctx context.Context, doc *Document) (Stats, error) {
	return c.engine.ValidateContext(ctx, doc.root)
}

// ValidateStats is Validate with work statistics.
func (c *Caster) ValidateStats(doc *Document) (Stats, error) {
	return c.engine.Validate(doc.root)
}

// ValidateTraced is ValidateStats in trace mode: alongside the verdict and
// statistics it returns the decision trace — one event per skip, reject,
// descend and check, in traversal order. The trace's skip and reject counts
// always equal the returned Stats' SubsumedSkips and DisjointRejects.
// Trace mode allocates per decision; use Validate/ValidateStats on hot
// paths.
func (c *Caster) ValidateTraced(doc *Document) (Stats, []TraceEvent, error) {
	tr := &telemetry.Trace{}
	st, err := c.engine.ValidateTrace(doc.root, tr)
	return st, fromTraceEvents(tr), err
}

// ValidateAll validates a batch of documents concurrently on a pool of
// workers sharing this caster (its preprocessed relations and content-model
// automata are immutable, so the hot path runs lock-free). workers <= 0
// uses one worker per logical CPU. The returned slice holds one verdict per
// document (nil when valid), and the Stats are the batch totals, merged
// from per-worker counters with Add.
func (c *Caster) ValidateAll(docs []*Document, workers int) ([]error, Stats) {
	return c.ValidateAllContext(context.Background(), docs, workers)
}

// ValidateAllContext is ValidateAll with fault containment and cooperative
// cancellation: each document's validation runs under a per-slot panic
// guard (a panicking validation yields a *PanicError verdict for its own
// slot, never crashes the pool), workers poll ctx between documents, and a
// canceled batch marks every unclaimed slot with the context's cause.
func (c *Caster) ValidateAllContext(ctx context.Context, docs []*Document, workers int) ([]error, Stats) {
	return validateAll(ctx, len(docs), workers, func(i int) (Stats, error) {
		return c.engine.ValidateContext(ctx, docs[i].root)
	})
}

// ValidateModified decides whether an edited document is valid under the
// target schema, given that its pre-edit form was valid under the source
// schema. changes must come from an EditSession over this document.
func (c *Caster) ValidateModified(doc *Document, changes *ChangeSet) error {
	_, err := c.engine.ValidateModified(doc.root, changes.trie)
	return err
}

// ValidateModifiedStats is ValidateModified with work statistics.
func (c *Caster) ValidateModifiedStats(doc *Document, changes *ChangeSet) (Stats, error) {
	return c.engine.ValidateModified(doc.root, changes.trie)
}

// Index gives direct access to all instances of each element label in a
// document, enabling the DTD optimization of §3.4.
type Index struct {
	idx cast.LabelIndex
}

// BuildIndex indexes a document by element label (one linear pass,
// amortized over repeated revalidations).
func BuildIndex(doc *Document) *Index {
	return &Index{idx: cast.BuildLabelIndex(doc.root)}
}

// ValidateIndexed revalidates using the DTD label-index optimization: only
// instances of labels whose (source, target) type pair is neither subsumed
// nor disjoint are visited, and only their immediate content is checked.
// Both schemas must be DTD-shaped (Schema.IsDTD).
func (c *Caster) ValidateIndexed(doc *Document, index *Index) error {
	_, err := c.engine.ValidateDTD(doc.root, index.idx)
	return err
}

// ValidateIndexedStats is ValidateIndexed with work statistics.
func (c *Caster) ValidateIndexedStats(doc *Document, index *Index) (Stats, error) {
	return c.engine.ValidateDTD(doc.root, index.idx)
}

// ValidateFull runs a complete target-schema validation of the document
// (the Xerces-style baseline) with the same instrumentation, for
// comparison against the cast paths.
func (s *Schema) ValidateFull(doc *Document) (Stats, error) {
	return baseline.New(s.s).Validate(doc.root)
}

// EditSession applies tracked edits to a document, Δ-encoding them so that
// schema cast validation with modifications can localize its work. Create
// one with Document.Edit; after the last edit call Done and pass the
// resulting ChangeSet to Caster.ValidateModified.
type EditSession struct {
	doc *Document
	tk  *update.Tracker
}

// Edit starts an edit session. The document is modified in place (deleted
// subtrees become invisible tombstones until serialization).
func (d *Document) Edit() *EditSession {
	return &EditSession{doc: d, tk: update.NewTracker(d.root)}
}

// Relabel changes an element's tag.
func (es *EditSession) Relabel(e Elem, newLabel string) error {
	return es.tk.Relabel(e.n, newLabel)
}

// SetText changes a text leaf's value.
func (es *EditSession) SetText(e Elem, value string) error {
	return es.tk.SetText(e.n, value)
}

// SetValue changes the simple value of an element with text content
// (convenience over SetText on the single text child; an element without a
// live text child gets one inserted). Tombstoned (deleted) text children
// are skipped, so delete-then-SetValue inserts a fresh text child instead
// of touching the deleted node.
func (es *EditSession) SetValue(e Elem, value string) error {
	for _, c := range e.n.Children {
		if c.IsText() && c.Delta != xmltree.DeltaDelete {
			return es.tk.SetText(c, value)
		}
	}
	return es.tk.AppendChild(e.n, Text(value).n)
}

// InsertBefore inserts a new subtree as the sibling before ref.
func (es *EditSession) InsertBefore(ref, subtree Elem) error {
	return es.tk.InsertBefore(ref.n, subtree.n)
}

// InsertAfter inserts a new subtree as the sibling after ref.
func (es *EditSession) InsertAfter(ref, subtree Elem) error {
	return es.tk.InsertAfter(ref.n, subtree.n)
}

// InsertFirstChild inserts a new subtree as parent's first child.
func (es *EditSession) InsertFirstChild(parent, subtree Elem) error {
	return es.tk.InsertFirstChild(parent.n, subtree.n)
}

// AppendChild inserts a new subtree as parent's last child.
func (es *EditSession) AppendChild(parent, subtree Elem) error {
	return es.tk.AppendChild(parent.n, subtree.n)
}

// Delete removes the subtree at e (tombstoned until serialization).
func (es *EditSession) Delete(e Elem) error {
	return es.tk.Delete(e.n)
}

// Edits returns the number of edits applied so far.
func (es *EditSession) Edits() int { return es.tk.Edits() }

// Done finalizes the session and returns the change set. The document must
// not be edited further through this session.
func (es *EditSession) Done() *ChangeSet {
	return &ChangeSet{trie: es.tk.Finalize()}
}

// ChangeSet localizes the regions a document edit session touched: a trie
// over Dewey numbers whose memory is proportional to the number of edits,
// independent of document size.
type ChangeSet struct {
	trie *update.Trie
}

// Empty reports whether no modifications were recorded.
func (cs *ChangeSet) Empty() bool { return !cs.trie.Modified() }

// Size returns the number of recorded modification sites.
func (cs *ChangeSet) Size() int { return cs.trie.Size() }
