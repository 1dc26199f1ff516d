package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	revalidate "repro"
	"repro/internal/wgen"
)

// encodeTexts compiles src → dst the way the registry does (both texts
// alone in one fresh universe, source first) and encodes the pair.
func encodeTexts(t testing.TB, srcText, dstText string) []byte {
	t.Helper()
	src := schemaInfo("xsd", "", srcText)
	dst := schemaInfo("xsd", "", dstText)
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
	blob, err := Encode(src, dst, c, c.Report())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return blob
}

// TestEncodeBytesPinned pins the SHA-256 of whole artifact blobs. The
// schema parser and the reconstruction fingerprint both feed these bytes,
// so a change to either that moved one byte would make every store
// written by an earlier build come back stale. The hex values were taken
// from the build before the parser moved onto xmlscan.
func TestEncodeBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name     string
		src, dst string
		want     string
	}{
		{"figure1a-figure2", wgen.Figure2XSD(true, 100), wgen.Figure2XSD(false, 100), "8bf976e55c9691bbfe2895218d8feb19e6c01a6cbb21da089b043839dad97476"},
		{"churn-300-100", wgen.Figure2XSD(true, 300), wgen.Figure2XSD(false, 100), "a74296e808ce8999f01fcc19bdc498a46082c43cac455dc1f84437c12d64cdfd"},
	} {
		sum := sha256.Sum256(encodeTexts(t, tc.src, tc.dst))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: blob sha256 %s, want %s", tc.name, got, tc.want)
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
