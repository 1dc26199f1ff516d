package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sort"

	revalidate "repro"
	"repro/internal/castmap"
	"repro/internal/fa"
	"repro/internal/regexpsym"
	"repro/internal/schema"
	"repro/internal/strcast"
	"repro/internal/subsume"
)

// Wire layout:
//
//	header  magic "XCAF" | uint32 version | uint32 crc32(payload) | uint64 payload length
//	payload schemas | alphabet | fingerprint | relations | casters | report
//
// All integers in the payload are varints (unsigned unless the value can be
// fa.Dead); strings and bitsets are length-prefixed. Caster entries are
// sorted by (source type, target type), and every count is validated
// against both the remaining input (so hostile lengths cannot drive
// allocations) and the reconstructed schemas (so a blob cannot index out of
// range) — encode→decode→encode is byte-identical.

var magic = [4]byte{'X', 'C', 'A', 'F'}

const headerSize = 4 + 4 + 4 + 8

// Decoder bounds, far above anything the schema layers produce but small
// enough that a hostile length fails fast.
const (
	maxStringLen = 1 << 28 // schema texts, report JSON
	maxCount     = 1 << 26 // states, types, symbols, casters
)

// ---------------------------------------------------------------- encoding

type writer struct{ buf []byte }

func (w *writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *writer) raw(b []byte)     { w.buf = append(w.buf, b...) }
func (w *writer) str(s string)     { w.uvarint(uint64(len(s))); w.buf = append(w.buf, s...) }
func (w *writer) blob(b []byte)    { w.uvarint(uint64(len(b))); w.raw(b) }

func (w *writer) bits(b []bool) {
	w.uvarint(uint64(len(b)))
	var cur byte
	for i, v := range b {
		if v {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			w.buf = append(w.buf, cur)
			cur = 0
		}
	}
	if len(b)%8 != 0 {
		w.buf = append(w.buf, cur)
	}
}

func (w *writer) i32s(v []int32) {
	w.uvarint(uint64(len(v)))
	for _, x := range v {
		w.varint(int64(x))
	}
}

// Encode serializes a compiled pair. The caster must have been built the
// registry way — its two schemas alone in one universe — or decoding will
// (correctly) classify the blob stale when re-parsing reproduces a
// different alphabet.
func Encode(src, dst SchemaInfo, caster *revalidate.Caster, report revalidate.PairReport) ([]byte, error) {
	rel, table := caster.Parts()
	ss, ds := rel.Src, rel.Dst

	w := &writer{buf: make([]byte, 0, 4096)}

	// schemas
	for _, in := range []SchemaInfo{src, dst} {
		w.str(in.Format)
		w.str(in.DTDRoot)
		w.str(in.Text)
		w.str(in.Hash)
	}

	// alphabet
	names := ss.Alpha.Names()
	w.uvarint(uint64(len(names)))
	for _, n := range names {
		w.str(n)
	}

	// fingerprint
	fp := fingerprint(ss, ds)
	w.raw(fp[:])

	// relations
	sub, nondis := rel.Matrices()
	w.uvarint(uint64(len(ss.Types)))
	w.uvarint(uint64(len(ds.Types)))
	w.bits(flatten(sub))
	w.bits(flatten(nondis))

	// casters, sorted by (source type, target type)
	snap := table.Snapshot()
	pairs := make([]castmap.Pair, 0, len(snap))
	for p := range snap {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Src != pairs[j].Src {
			return pairs[i].Src < pairs[j].Src
		}
		return pairs[i].Dst < pairs[j].Dst
	})
	w.uvarint(uint64(len(pairs)))
	for _, p := range pairs {
		c := snap[p]
		if c.CImmed == nil || c.CImmed.Pairs == nil || c.BImmed == nil {
			return nil, fmt.Errorf("artifact: caster (%d,%d) lacks product bookkeeping", p.Src, p.Dst)
		}
		w.uvarint(uint64(p.Src))
		w.uvarint(uint64(p.Dst))
		w.bits(c.BImmed.IA)
		w.bits(c.BImmed.IR)
		d := c.CImmed.D
		start, accept, trans := d.Table()
		w.uvarint(uint64(d.NumSymbols()))
		w.uvarint(uint64(d.NumStates()))
		w.varint(int64(start))
		w.bits(accept)
		w.i32s(trans)
		w.i32s(c.CImmed.Pairs.PairTable())
		w.bits(c.CImmed.IA)
		w.bits(c.CImmed.IR)
	}

	// report
	rj, err := json.Marshal(report)
	if err != nil {
		return nil, fmt.Errorf("artifact: marshal report: %w", err)
	}
	w.blob(rj)

	// header
	out := make([]byte, headerSize, headerSize+len(w.buf))
	copy(out, magic[:])
	binary.LittleEndian.PutUint32(out[4:], Version)
	binary.LittleEndian.PutUint32(out[8:], crc32.ChecksumIEEE(w.buf))
	binary.LittleEndian.PutUint64(out[12:], uint64(len(w.buf)))
	return append(out, w.buf...), nil
}

func flatten(m [][]bool) []bool {
	var n int
	for _, row := range m {
		n += len(row)
	}
	out := make([]bool, 0, n)
	for _, row := range m {
		out = append(out, row...)
	}
	return out
}

// ---------------------------------------------------------------- decoding

type reader struct {
	data []byte
	off  int
}

func (r *reader) remaining() int { return len(r.data) - r.off }

func (r *reader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint (%s)", ErrCorrupt, what)
	}
	r.off += n
	return v, nil
}

func (r *reader) varint(what string) (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint (%s)", ErrCorrupt, what)
	}
	r.off += n
	return v, nil
}

// count reads an unsigned count and bounds it: by the global cap, by the
// caller's per-element size against the remaining input, so no count can
// request an allocation larger than the blob itself.
func (r *reader) count(minBytesPerElem int, what string) (int, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > maxCount {
		return 0, fmt.Errorf("%w: %s count %d exceeds limit", ErrCorrupt, what, v)
	}
	if minBytesPerElem > 0 && v > uint64(r.remaining()/minBytesPerElem)+1 {
		return 0, fmt.Errorf("%w: %s count %d exceeds input", ErrCorrupt, what, v)
	}
	return int(v), nil
}

func (r *reader) bytesN(n int, what string) ([]byte, error) {
	if n < 0 || n > r.remaining() {
		return nil, fmt.Errorf("%w: truncated %s", ErrCorrupt, what)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) str(what string) (string, error) {
	n, err := r.uvarint(what)
	if err != nil {
		return "", err
	}
	if n > maxStringLen || n > uint64(r.remaining()) {
		return "", fmt.Errorf("%w: %s length %d exceeds input", ErrCorrupt, what, n)
	}
	b, err := r.bytesN(int(n), what)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *reader) bits(what string) ([]bool, error) {
	n, err := r.uvarint(what)
	if err != nil {
		return nil, err
	}
	need := (n + 7) / 8
	if n > maxCount*8 || need > uint64(r.remaining()) {
		return nil, fmt.Errorf("%w: %s bitset length %d exceeds input", ErrCorrupt, what, n)
	}
	packed, err := r.bytesN(int(need), what)
	if err != nil {
		return nil, err
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = packed[i/8]&(1<<(i%8)) != 0
	}
	return out, nil
}

func (r *reader) i32s(what string) ([]int32, error) {
	n, err := r.count(1, what)
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	for i := range out {
		v, err := r.varint(what)
		if err != nil {
			return nil, err
		}
		if v < -(1<<31) || v >= 1<<31 {
			return nil, fmt.Errorf("%w: %s value %d overflows int32", ErrCorrupt, what, v)
		}
		out[i] = int32(v)
	}
	return out, nil
}

// rawArtifact is the parsed-but-not-reconstructed payload: everything the
// blob says, before any schema is re-parsed. Inspect stops here; Decode
// continues into reconstruction.
type rawArtifact struct {
	src, dst    SchemaInfo
	alphabet    []string
	fingerprint [32]byte
	nSrc, nDst  int
	sub, nondis []bool
	casters     []rawCaster
	reportJSON  []byte
	sections    []SectionInfo
}

type rawCaster struct {
	srcType, dstType     int
	bIA, bIR             []bool
	pNumSymbols, pStates int
	pStart               int
	pAccept              []bool
	pTrans               []int32
	pairTable            []int32
	cIA, cIR             []bool
}

// SectionInfo reports one payload section's size, for artifact inspection.
type SectionInfo struct {
	Name  string `json:"name"`
	Bytes int    `json:"bytes"`
}

// parse validates the header and CRC and splits the payload into its raw
// sections. It never parses schema texts and allocates at most
// proportionally to the input length.
func parse(blob []byte) (*rawArtifact, error) {
	if len(blob) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the %d-byte header", ErrCorrupt, len(blob), headerSize)
	}
	if !bytes.Equal(blob[:4], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, blob[:4])
	}
	if v := binary.LittleEndian.Uint32(blob[4:]); v != Version {
		return nil, fmt.Errorf("%w: format version %d (this build reads %d)", ErrStale, v, Version)
	}
	wantCRC := binary.LittleEndian.Uint32(blob[8:])
	plen := binary.LittleEndian.Uint64(blob[12:])
	if plen != uint64(len(blob)-headerSize) {
		return nil, fmt.Errorf("%w: payload length %d, have %d bytes", ErrCorrupt, plen, len(blob)-headerSize)
	}
	payload := blob[headerSize:]
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrCorrupt, wantCRC, got)
	}

	r := &reader{data: payload}
	a := &rawArtifact{}
	mark := 0
	section := func(name string) {
		a.sections = append(a.sections, SectionInfo{Name: name, Bytes: r.off - mark})
		mark = r.off
	}

	var err error
	for _, in := range []*SchemaInfo{&a.src, &a.dst} {
		if in.Format, err = r.str("schema format"); err != nil {
			return nil, err
		}
		if in.DTDRoot, err = r.str("schema dtd root"); err != nil {
			return nil, err
		}
		if in.Text, err = r.str("schema text"); err != nil {
			return nil, err
		}
		if in.Hash, err = r.str("schema hash"); err != nil {
			return nil, err
		}
	}
	section("schemas")

	nNames, err := r.count(1, "alphabet")
	if err != nil {
		return nil, err
	}
	a.alphabet = make([]string, nNames)
	for i := range a.alphabet {
		if a.alphabet[i], err = r.str("alphabet name"); err != nil {
			return nil, err
		}
	}
	section("alphabet")

	fp, err := r.bytesN(32, "fingerprint")
	if err != nil {
		return nil, err
	}
	copy(a.fingerprint[:], fp)
	section("fingerprint")

	if a.nSrc, err = r.count(0, "source types"); err != nil {
		return nil, err
	}
	if a.nDst, err = r.count(0, "target types"); err != nil {
		return nil, err
	}
	if a.sub, err = r.bits("R_sub"); err != nil {
		return nil, err
	}
	if a.nondis, err = r.bits("R_nondis"); err != nil {
		return nil, err
	}
	if len(a.sub) != a.nSrc*a.nDst || len(a.nondis) != a.nSrc*a.nDst {
		return nil, fmt.Errorf("%w: relation matrices sized %d/%d for %d×%d types",
			ErrCorrupt, len(a.sub), len(a.nondis), a.nSrc, a.nDst)
	}
	section("relations")

	nCasters, err := r.count(8, "casters")
	if err != nil {
		return nil, err
	}
	a.casters = make([]rawCaster, nCasters)
	for i := range a.casters {
		c := &a.casters[i]
		if c.srcType, err = r.count(0, "caster source type"); err != nil {
			return nil, err
		}
		if c.dstType, err = r.count(0, "caster target type"); err != nil {
			return nil, err
		}
		if c.bIA, err = r.bits("b_immed IA"); err != nil {
			return nil, err
		}
		if c.bIR, err = r.bits("b_immed IR"); err != nil {
			return nil, err
		}
		if c.pNumSymbols, err = r.count(0, "product symbols"); err != nil {
			return nil, err
		}
		if c.pStates, err = r.count(0, "product states"); err != nil {
			return nil, err
		}
		st, err := r.varint("product start")
		if err != nil {
			return nil, err
		}
		if st < fa.Dead || st > int64(c.pStates) {
			return nil, fmt.Errorf("%w: product start %d out of range", ErrCorrupt, st)
		}
		c.pStart = int(st)
		if c.pAccept, err = r.bits("product accept"); err != nil {
			return nil, err
		}
		if c.pTrans, err = r.i32s("product transitions"); err != nil {
			return nil, err
		}
		if c.pairTable, err = r.i32s("product pairs"); err != nil {
			return nil, err
		}
		if c.cIA, err = r.bits("c_immed IA"); err != nil {
			return nil, err
		}
		if c.cIR, err = r.bits("c_immed IR"); err != nil {
			return nil, err
		}
		if len(c.pAccept) != c.pStates ||
			len(c.pTrans) != c.pStates*c.pNumSymbols ||
			len(c.pairTable) != 2*c.pStates ||
			len(c.cIA) != c.pStates || len(c.cIR) != c.pStates {
			return nil, fmt.Errorf("%w: caster %d sections inconsistent with %d product states",
				ErrCorrupt, i, c.pStates)
		}
	}
	section("casters")

	rj, err := r.str("report")
	if err != nil {
		return nil, err
	}
	a.reportJSON = []byte(rj)
	section("report")

	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after report", ErrCorrupt, r.remaining())
	}
	return a, nil
}

// Decode reconstructs a fully working pair from an encoded blob. Arbitrary
// input errors cleanly (never panics); a version or fingerprint mismatch is
// ErrStale, structurally bad bytes are ErrCorrupt. Both mean: recompile.
// Every content model is compiled locally; DecodeModels reuses a table.
func Decode(blob []byte) (*Decoded, error) { return DecodeModels(blob, nil) }

// DecodeModels is Decode re-parsing the schema texts through a content-model
// table (nil compiles every model locally). The table only saves work: the
// reconstruction, and so the verdict, is the same with or without it.
func DecodeModels(blob []byte, models *schema.ModelTable) (*Decoded, error) {
	a, err := parse(blob)
	if err != nil {
		return nil, err
	}
	return a.restore(models)
}

func (a *rawArtifact) restore(models *schema.ModelTable) (*Decoded, error) {
	// Re-parse both texts, source first — the same order the registry
	// compiles in, so alphabet interning and TypeIDs reproduce exactly.
	u := revalidate.NewUniverseModels(models)
	srcS, err := loadInfo(u, a.src)
	if err != nil {
		return nil, fmt.Errorf("%w: source schema: %v", ErrStale, err)
	}
	dstS, err := loadInfo(u, a.dst)
	if err != nil {
		return nil, fmt.Errorf("%w: target schema: %v", ErrStale, err)
	}
	ss, ds := srcS.Abstract(), dstS.Abstract()
	ss.WidenToAlphabet()
	ds.WidenToAlphabet()

	// The serialized automata index into the reconstruction by symbol and
	// type id; verify the reconstruction is the one the encoder saw.
	names := ss.Alpha.Names()
	if len(names) != len(a.alphabet) {
		return nil, fmt.Errorf("%w: re-parsed alphabet has %d symbols, blob recorded %d", ErrStale, len(names), len(a.alphabet))
	}
	for i, n := range names {
		if n != a.alphabet[i] {
			return nil, fmt.Errorf("%w: alphabet symbol %d is %q, blob recorded %q", ErrStale, i, n, a.alphabet[i])
		}
	}
	if fp := fingerprint(ss, ds); fp != a.fingerprint {
		return nil, fmt.Errorf("%w: reconstruction fingerprint mismatch", ErrStale)
	}
	if a.nSrc != len(ss.Types) || a.nDst != len(ds.Types) {
		return nil, fmt.Errorf("%w: blob records %d×%d types, reconstruction has %d×%d",
			ErrStale, a.nSrc, a.nDst, len(ss.Types), len(ds.Types))
	}

	rel, err := subsume.Restore(ss, ds, unflatten(a.sub, a.nSrc, a.nDst), unflatten(a.nondis, a.nSrc, a.nDst))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	casters := make(map[castmap.Pair]*strcast.Caster, len(a.casters))
	for i := range a.casters {
		rc := &a.casters[i]
		c, key, err := rc.restore(ss, ds)
		if err != nil {
			return nil, err
		}
		if _, dup := casters[key]; dup {
			return nil, fmt.Errorf("%w: duplicate caster for type pair (%d,%d)", ErrCorrupt, key.Src, key.Dst)
		}
		casters[key] = c
	}
	table := castmap.Restore(ss, ds, casters)

	c, sc, err := revalidate.RestoreCasterPair(srcS, dstS, rel, table)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	var report revalidate.PairReport
	if err := json.Unmarshal(a.reportJSON, &report); err != nil {
		return nil, fmt.Errorf("%w: report: %v", ErrCorrupt, err)
	}
	return &Decoded{
		Src: a.src, Dst: a.dst,
		SrcSchema: srcS, DstSchema: dstS,
		Caster: c, Stream: sc,
		Report: report,
	}, nil
}

func (rc *rawCaster) restore(ss, ds *schema.Schema) (*strcast.Caster, castmap.Pair, error) {
	var zero castmap.Pair
	if rc.srcType >= len(ss.Types) || rc.dstType >= len(ds.Types) {
		return nil, zero, fmt.Errorf("%w: caster type pair (%d,%d) out of range", ErrCorrupt, rc.srcType, rc.dstType)
	}
	a := ss.Types[rc.srcType].DFA
	b := ds.Types[rc.dstType].DFA
	if a == nil || b == nil {
		return nil, zero, fmt.Errorf("%w: caster type pair (%d,%d) is not complex/complex", ErrStale, rc.srcType, rc.dstType)
	}
	if rc.pNumSymbols != a.NumSymbols() {
		return nil, zero, fmt.Errorf("%w: product over %d symbols, reconstruction has %d", ErrStale, rc.pNumSymbols, a.NumSymbols())
	}
	if len(rc.bIA) != b.NumStates() || len(rc.bIR) != b.NumStates() {
		return nil, zero, fmt.Errorf("%w: b_immed sets sized %d/%d for %d target states",
			ErrStale, len(rc.bIA), len(rc.bIR), b.NumStates())
	}
	d, err := fa.RestoreDFA(rc.pNumSymbols, rc.pStart, rc.pAccept, rc.pTrans)
	if err != nil {
		return nil, zero, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	prod, err := fa.RestoreProduct(a, b, d, rc.pairTable)
	if err != nil {
		return nil, zero, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	cImmed := &fa.IDA{D: d, IA: rc.cIA, IR: rc.cIR, Pairs: prod}
	bImmed := &fa.IDA{D: b, IA: rc.bIA, IR: rc.bIR}
	c, err := strcast.Restore(a, b, cImmed, bImmed)
	if err != nil {
		return nil, zero, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return c, castmap.Pair{Src: schema.TypeID(rc.srcType), Dst: schema.TypeID(rc.dstType)}, nil
}

func loadInfo(u *revalidate.Universe, in SchemaInfo) (*revalidate.Schema, error) {
	switch in.Format {
	case "xsd":
		return u.LoadXSDString(in.Text)
	case "dtd":
		return u.LoadDTD(in.Text, in.DTDRoot)
	default:
		return nil, fmt.Errorf("unknown schema format %q", in.Format)
	}
}

func unflatten(flat []bool, n, m int) [][]bool {
	rows := make([][]bool, n)
	for i := range rows {
		rows[i] = flat[i*m : (i+1)*m : (i+1)*m]
	}
	return rows
}

// ------------------------------------------------------------- fingerprint

// fingerprint hashes everything the serialized state indexes into: the
// alphabet, and per type the name, facets, content model, compiled DFA
// table, child-type map and roots. Decode recomputes it over the re-parsed
// schemas; any drift (a changed regex compiler, minimizer, or facet
// renderer between builds) makes the blob stale rather than subtly wrong.
func fingerprint(src, dst *schema.Schema) [32]byte {
	var w writer
	for _, n := range src.Alpha.Names() {
		fpStr(&w, n)
	}
	fpSchema(&w, src)
	fpSchema(&w, dst)
	return sha256.Sum256(w.buf)
}

// fpStr appends s behind a signed-varint length. The fingerprint has
// always framed strings this way (the payload's strings use an unsigned
// length), and its bytes may not change: stores written by earlier builds
// would all come back stale.
func fpStr(w *writer, s string) {
	w.varint(int64(len(s)))
	w.buf = append(w.buf, s...)
}

func fpSchema(w *writer, s *schema.Schema) {
	w.varint(int64(len(s.Types)))
	for _, t := range s.Types {
		fpStr(w, t.Name)
		if t.Simple {
			w.varint(1)
			if t.Value != nil {
				fpStr(w, t.Value.String())
			} else {
				fpStr(w, "")
			}
			continue
		}
		w.varint(0)
		fpStr(w, regexpsym.String(t.Content))
		start, accept, trans := t.DFA.Table()
		w.varint(int64(t.DFA.NumSymbols()))
		w.varint(int64(start))
		w.varint(int64(len(accept)))
		for _, a := range accept {
			if a {
				w.buf = append(w.buf, 1)
			} else {
				w.buf = append(w.buf, 0)
			}
		}
		for _, tr := range trans {
			w.varint(int64(tr))
		}
		syms := make([]int, 0, len(t.Child))
		for sym := range t.Child {
			syms = append(syms, int(sym))
		}
		sort.Ints(syms)
		for _, sym := range syms {
			w.varint(int64(sym))
			w.varint(int64(t.Child[fa.Symbol(sym)]))
		}
	}
	roots := make([]int, 0, len(s.Roots))
	for sym := range s.Roots {
		roots = append(roots, int(sym))
	}
	sort.Ints(roots)
	for _, sym := range roots {
		w.varint(int64(sym))
		w.varint(int64(s.Roots[fa.Symbol(sym)]))
	}
}
