package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	revalidate "repro"
	"repro/internal/fa"
	"repro/internal/wgen"
)

// compileTexts compiles src → dst the way the registry does (both texts
// alone in one fresh universe, source first).
func compileTexts(t testing.TB, srcText, dstText string) (src, dst SchemaInfo, ss *revalidate.Schema, c *revalidate.Caster, sc *revalidate.StreamCaster) {
	t.Helper()
	src = schemaInfo("xsd", "", srcText)
	dst = schemaInfo("xsd", "", dstText)
	u := revalidate.NewUniverse()
	ss, err := u.LoadXSDString(src.Text)
	if err != nil {
		t.Fatalf("load source: %v", err)
	}
	ds, err := u.LoadXSDString(dst.Text)
	if err != nil {
		t.Fatalf("load target: %v", err)
	}
	c, sc, err = revalidate.NewCasterPair(ss, ds)
	if err != nil {
		t.Fatalf("caster pair: %v", err)
	}
	return src, dst, ss, c, sc
}

// encodeTexts compiles src → dst and encodes the pair.
func encodeTexts(t testing.TB, srcText, dstText string) []byte {
	t.Helper()
	src, dst, _, c, _ := compileTexts(t, srcText, dstText)
	blob, err := Encode(src, dst, c, c.Report())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return blob
}

// TestEncodeBytesPinned pins the SHA-256 of whole artifact blobs. The
// schema parser and the reconstruction fingerprint both feed these bytes,
// so a change to either that moved one byte would make every store
// written by an earlier build come back stale. The hex values were
// re-taken when c_immed moved from the full Q_a × Q_b product to the pairs
// reachable from the start pair, which shrinks the caster sections; blobs
// written before that still decode (TestFullProductBlobDecodes).
func TestEncodeBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name     string
		src, dst string
		want     string
	}{
		{"figure1a-figure2", wgen.Figure2XSD(true, 100), wgen.Figure2XSD(false, 100), "4b517f4bf735c2babadae25418c3798b90aa4fac900b6aa834416c46e4b936d8"},
		{"churn-300-100", wgen.Figure2XSD(true, 300), wgen.Figure2XSD(false, 100), "03f6a2a20baa1ecca5464c5758bbf3505f51363691be3ccaf6038dfe13e0324b"},
	} {
		sum := sha256.Sum256(encodeTexts(t, tc.src, tc.dst))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: blob sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestFullProductBlobDecodes: a blob whose casters hold c_immed over the
// full Q_a × Q_b product, byte for byte as builds before the reachable
// product wrote it, still decodes, and the restored pair casts exactly as
// a fresh compile does: same verdicts, same work counters.
func TestFullProductBlobDecodes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		src, dst string
		want     string // blob sha256 as the full-product builds wrote it
	}{
		{"figure1a-figure2", wgen.Figure2XSD(true, 100), wgen.Figure2XSD(false, 100), "8bf976e55c9691bbfe2895218d8feb19e6c01a6cbb21da089b043839dad97476"},
		{"churn-300-100", wgen.Figure2XSD(true, 300), wgen.Figure2XSD(false, 100), "a74296e808ce8999f01fcc19bdc498a46082c43cac455dc1f84437c12d64cdfd"},
	} {
		src, dst, ss, c, _ := compileTexts(t, tc.src, tc.dst)
		_, table := c.Parts()
		for _, sc := range table.Snapshot() {
			sc.CImmed = fa.DeriveCastIDA(sc.A, sc.B)
		}
		blob, err := Encode(src, dst, c, c.Report())
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		if sum := sha256.Sum256(blob); hex.EncodeToString(sum[:]) != tc.want {
			t.Fatalf("%s: full-product blob sha256 %x, want %s", tc.name, sum, tc.want)
		}
		dec, err := Decode(blob)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		_, fullTable := dec.Caster.Parts()
		for p, sc := range fullTable.Snapshot() {
			if got, want := sc.CImmed.D.NumStates(), sc.A.NumStates()*sc.B.NumStates(); got < want {
				t.Fatalf("%s: decoded caster (%d,%d) has %d c_immed states, want the full product's %d or more", tc.name, p.Src, p.Dst, got, want)
			}
		}
		_, _, _, fresh, freshStream := compileTexts(t, tc.src, tc.dst)
		rejects := 0
		for i, doc := range sourceDocs(t, ss, 40) {
			want, wantErr := fresh.ValidateStats(doc)
			got, gotErr := dec.Caster.ValidateStats(doc)
			if got != want || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: doc %d: full-product blob casts %+v (err %v), fresh compile %+v (err %v)", tc.name, i, got, gotErr, want, wantErr)
			}
			if wantErr != nil {
				rejects++
			}
			want, wantErr = freshStream.Validate(strings.NewReader(doc.XML()))
			got, gotErr = dec.Stream.Validate(strings.NewReader(doc.XML()))
			if got != want || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: doc %d: full-product blob streams %+v (err %v), fresh compile %+v (err %v)", tc.name, i, got, gotErr, want, wantErr)
			}
		}
		if rejects == 0 {
			t.Fatalf("%s: no document is rejected, so no content-model decision was compared", tc.name)
		}
	}
}

// decodeAllocsMax pins standalone Decode (no model table: every schema
// text is parsed and every content model compiled) of the pair-churn
// workload's pair shape, at the measured value + 10%: 2,064. The tree
// parser on encoding/xml with the per-integer fingerprint allocated 3,587
// times.
const decodeAllocsMax = 2270

func TestDecodeAllocs(t *testing.T) {
	blob := encodeTexts(t, wgen.Figure2XSD(true, 300), wgen.Figure2XSD(false, 100))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Decode(blob); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > decodeAllocsMax {
		t.Fatalf("Decode allocated %v times, budget %d", allocs, decodeAllocsMax)
	}
}

func BenchmarkDecodeChurnPair(b *testing.B) {
	blob := encodeTexts(b, wgen.Figure2XSD(true, 300), wgen.Figure2XSD(false, 100))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(blob); err != nil {
			b.Fatal(err)
		}
	}
}
