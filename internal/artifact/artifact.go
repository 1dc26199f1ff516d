// Package artifact persists the expensive static state of a compiled
// (source, target) schema pair — the R_sub/R_dis relations of EDBT'04 §3.2
// and the per-type-pair immediate decision automata of §4 — as a versioned,
// CRC-checked binary blob, plus an on-disk store for those blobs.
//
// The economics mirror the paper's: preprocessing a pair costs automaton
// products and relation fixpoints, validation afterwards is nearly free. An
// artifact makes the preprocessing durable — a restarted (or peer) daemon
// loads the relations and product IDAs from the blob instead of recomputing
// them. The cheap parts of a pair (parsing the schema texts into abstract
// schemas) are *not* serialized: both texts travel in the blob and are
// re-parsed on decode, which deterministically reproduces the alphabet
// interning and per-type content DFAs the serialized product automata index
// into. A fingerprint over that reconstruction guards the assumption: if
// re-parsing yields different automata (a compiler change between versions,
// say), the blob is stale and the caller falls back to a fresh compile.
//
// Re-parsing is cheap because content models need not be recompiled:
// DecodeModels and Store.LoadPair take the registry's schema.ModelTable and
// relabel each shared model's DFA onto the fresh alphabet. The standalone
// Decode has no table and compiles every model locally. Both paths compile
// a model the same way — over its own labels, minimized with canonical
// state numbering, then relabelled — so the reconstruction, fingerprint
// and verdicts never depend on whether a table was given or what it held.
//
// Blobs are addressed by Key, a content hash of the two schemas' registry
// hashes — the same pair key on every node, which is what lets clustered
// daemons fetch each other's artifacts.
package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"

	revalidate "repro"
)

// Format-version history. Decoders accept exactly the current version;
// anything else is ErrStale and triggers a recompile (artifacts are caches,
// not archives — there is no cross-version migration).
const Version = 1

// Errors classifying why a blob was rejected. Both classes must end in a
// fallback compile, never a panic; the store additionally quarantines the
// offending file.
var (
	// ErrNotFound reports that the store holds no blob under the key.
	ErrNotFound = errors.New("artifact: not found")
	// ErrCorrupt reports structurally bad bytes: wrong magic, CRC mismatch,
	// truncated or inconsistent sections.
	ErrCorrupt = errors.New("artifact: corrupt")
	// ErrStale reports a well-formed blob this build cannot trust: a
	// different format version, or a reconstruction fingerprint mismatch
	// (re-parsing the embedded schema texts no longer reproduces the
	// automata the serialized state indexes into).
	ErrStale = errors.New("artifact: stale")
)

// SchemaInfo identifies one schema of the pair by its source text — enough
// to reconstruct the abstract schema deterministically on decode.
type SchemaInfo struct {
	Format  string // "xsd" or "dtd"
	DTDRoot string // root element for DTD texts without a DOCTYPE
	Text    string
	Hash    string // the registry's content hash, carried for addressing
}

// Key derives the content-hash address of a pair artifact from the two
// schemas' registry content hashes. Every node computes the same key for
// the same pair, independent of schema ids.
func Key(srcHash, dstHash string) string {
	h := sha256.Sum256([]byte("xcaf-v1\x00" + srcHash + "\x00" + dstHash))
	return hex.EncodeToString(h[:])
}

// Decoded is a fully reconstructed pair: both validation modes assembled
// around the deserialized relations and caster table, ready to serve casts
// with zero recompilation.
type Decoded struct {
	Src, Dst             SchemaInfo
	SrcSchema, DstSchema *revalidate.Schema
	Caster               *revalidate.Caster
	Stream               *revalidate.StreamCaster
	Report               revalidate.PairReport
}
