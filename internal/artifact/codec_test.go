package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"

	revalidate "repro"
	"repro/internal/wgen"
)

// schemaInfo mirrors the registry's content hashing for a schema text.
func schemaInfo(format, root, text string) SchemaInfo {
	h := sha256.Sum256([]byte(format + "\x00" + root + "\x00" + text))
	return SchemaInfo{Format: format, DTDRoot: root, Text: text, Hash: hex.EncodeToString(h[:])}
}

// figPair compiles the paper's Figure 1a (billTo optional) → Figure 2
// (billTo required) pair exactly the way the registry does: both texts
// alone in one fresh universe, source first.
func figPair(t testing.TB) (src, dst SchemaInfo, caster *revalidate.Caster, report revalidate.PairReport) {
	t.Helper()
	src = schemaInfo("xsd", "", wgen.Figure2XSD(true, 100))
	dst = schemaInfo("xsd", "", wgen.Figure2XSD(false, 100))
	u := revalidate.NewUniverse()
	ss, err := u.LoadXSDString(src.Text)
	if err != nil {
		t.Fatalf("load source: %v", err)
	}
	ds, err := u.LoadXSDString(dst.Text)
	if err != nil {
		t.Fatalf("load target: %v", err)
	}
	c, _, err := revalidate.NewCasterPair(ss, ds)
	if err != nil {
		t.Fatalf("caster pair: %v", err)
	}
	return src, dst, c, c.Report()
}

func encodeFigPair(t testing.TB) []byte {
	t.Helper()
	src, dst, c, report := figPair(t)
	blob, err := Encode(src, dst, c, report)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return blob
}

func poXML(withBill bool) string {
	return string(wgen.POXMLBytes(wgen.PODocument(wgen.PODocOptions{Items: 3, IncludeBillTo: withBill, Seed: 1})))
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	src, dst, fresh, report := figPair(t)
	blob, err := Encode(src, dst, fresh, report)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := Decode(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Src != src || dec.Dst != dst {
		t.Fatal("schema infos not preserved")
	}
	if !reflect.DeepEqual(dec.Report, report) {
		t.Fatalf("report not preserved:\n got %+v\nwant %+v", dec.Report, report)
	}

	// The restored pair must validate identically to the fresh one — same
	// verdicts and the same work counters, which only match if the
	// relations and IDAs (not just the schemas) were restored faithfully.
	valid, err := revalidate.ParseDocumentString(poXML(true))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	invalid, err := revalidate.ParseDocumentString(poXML(false))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	freshStats, err := fresh.ValidateStats(valid)
	if err != nil {
		t.Fatalf("fresh caster rejected valid doc: %v", err)
	}
	decStats, err := dec.Caster.ValidateStats(valid)
	if err != nil {
		t.Fatalf("restored caster rejected valid doc: %v", err)
	}
	if freshStats != decStats {
		t.Fatalf("work stats diverge:\nfresh    %+v\nrestored %+v", freshStats, decStats)
	}
	if err := dec.Caster.Validate(invalid); err == nil {
		t.Fatal("restored caster accepted billTo-less doc against required-billTo target")
	}
	if _, err := dec.Stream.Validate(strings.NewReader(poXML(true))); err != nil {
		t.Fatalf("restored stream caster rejected valid doc: %v", err)
	}
	if _, err := dec.Stream.Validate(strings.NewReader(poXML(false))); err == nil {
		t.Fatal("restored stream caster accepted invalid doc")
	}
}

// TestReencodeByteIdentical is the codec's determinism property:
// encode→decode→encode reproduces the blob bit for bit.
func TestReencodeByteIdentical(t *testing.T) {
	blob := encodeFigPair(t)
	dec, err := Decode(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	blob2, err := Encode(dec.Src, dec.Dst, dec.Caster, dec.Report)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatalf("re-encode diverged: %d vs %d bytes", len(blob), len(blob2))
	}
}

func TestDecodeTruncatedAndFlipped(t *testing.T) {
	blob := encodeFigPair(t)
	for n := 0; n < len(blob); n += 1 + n/16 {
		if _, err := Decode(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	// Any payload bit flip must fail the CRC (or a later structural check),
	// never panic or decode quietly.
	for off := headerSize; off < len(blob); off += 1 + (len(blob)-headerSize)/64 {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x40
		if _, err := Decode(mut); err == nil {
			t.Fatalf("bit flip at offset %d decoded successfully", off)
		} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrStale) {
			t.Fatalf("bit flip at offset %d: unexpected error class %v", off, err)
		}
	}
}

func TestDecodeVersionMismatchIsStale(t *testing.T) {
	blob := encodeFigPair(t)
	mut := append([]byte(nil), blob...)
	mut[4] = Version + 1
	if _, err := Decode(mut); !errors.Is(err, ErrStale) {
		t.Fatalf("future version: want ErrStale, got %v", err)
	}
}

func TestDecodeBadMagicIsCorrupt(t *testing.T) {
	blob := encodeFigPair(t)
	mut := append([]byte(nil), blob...)
	mut[0] = 'Y'
	if _, err := Decode(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: want ErrCorrupt, got %v", err)
	}
}

// TestDecodeStaleReconstruction: an artifact whose caster was built in a
// universe with a different interning order (target loaded first) must be
// rejected as stale — the decoder always re-parses source first, so the
// serialized automata would index a different symbol space.
func TestDecodeStaleReconstruction(t *testing.T) {
	src := schemaInfo("xsd", "", wgen.Figure2XSD(true, 100))
	dst := schemaInfo("xsd", "", wgen.Figure2XSD(false, 200))
	u := revalidate.NewUniverse()
	// Deliberately wrong order relative to the SchemaInfo labeling: the
	// alphabet is interned while loading "dst" first.
	ds, err := u.LoadXSDString(dst.Text)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	ss, err := u.LoadXSDString(src.Text)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	c, _, err := revalidate.NewCasterPair(ds, ss)
	if err != nil {
		t.Fatalf("caster pair: %v", err)
	}
	blob, err := Encode(src, dst, c, c.Report())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// The blob is structurally fine (CRC passes); the reconstruction check
	// must still refuse it. Depending on the schemas it can trip on the
	// fingerprint or the relation dimensions — ErrStale either way.
	if _, err := Decode(blob); !errors.Is(err, ErrStale) {
		t.Fatalf("want ErrStale for reconstruction mismatch, got %v", err)
	}
}

func TestInspect(t *testing.T) {
	blob := encodeFigPair(t)
	info, err := Inspect(blob)
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if info.TotalBytes != len(blob) || info.Version != Version {
		t.Fatalf("header summary wrong: %+v", info)
	}
	if info.AlphabetSize == 0 || info.SrcTypes == 0 || info.DstTypes == 0 {
		t.Fatalf("empty schema summary: %+v", info)
	}
	if len(info.Casters) == 0 || info.ProductStates == 0 {
		t.Fatalf("no casters inspected: %+v", info)
	}
	var total int
	for _, s := range info.Sections {
		total += s.Bytes
	}
	if total != info.PayloadBytes {
		t.Fatalf("section sizes sum to %d, payload is %d", total, info.PayloadBytes)
	}
	if info.Key != Key(info.Src.Hash, info.Dst.Hash) {
		t.Fatal("inspect key does not match Key()")
	}
}
