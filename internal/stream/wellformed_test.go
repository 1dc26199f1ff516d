package stream

import (
	"io"
	"strings"
	"testing"

	"repro/internal/fa"
	"repro/internal/regexpsym"
	"repro/internal/schema"
)

// miniCastPair builds the smallest schema pair the walker casts between:
// root <comment/> with empty content under both source and target.
func miniCastPair(t *testing.T) (*schema.Schema, *schema.Schema) {
	t.Helper()
	alpha := fa.NewAlphabet()
	src := schema.New(alpha)
	se, _ := src.AddComplexType("SrcEmpty", regexpsym.Epsilon{})
	src.SetRoot("comment", se)
	src.MustCompile()
	dst := schema.New(alpha)
	de, _ := dst.AddComplexType("DstEmpty", regexpsym.Epsilon{})
	dst.SetRoot("comment", de)
	dst.MustCompile()
	return src, dst
}

// Full validation and the cast must both hold the document to XML
// well-formedness outside the root element: trailing or leading
// non-whitespace text is a rejection, not a silent accept, and a stray
// end tag is a structured error rather than a panic. These are
// regression tests for two seed bugs: `<a/>trailing garbage` validated,
// and an end tag with an empty stack indexed stack[-1].
func TestWellFormednessOutsideRoot(t *testing.T) {
	cases := []struct {
		name  string
		doc   string
		valid bool
	}{
		{"plain root", `<comment/>`, true},
		{"ws around root", " \n\t<comment></comment>\r\n ", true},
		{"comment and pi around root", `<?p d?><!-- a --><comment/><!-- b --><?p d?>`, true},
		{"leading BOM", "\uFEFF<comment/>", true},
		{"trailing garbage", `<comment/>trailing garbage`, false},
		{"leading garbage", `junk<comment/>`, false},
		{"trailing BOM", "<comment/>\uFEFF", false},
		{"text between roots", `<comment/>x<comment/>`, false},
		{"stray end tag only", `</comment>`, false},
		{"stray end tag after root", `<comment></comment></comment>`, false},
		{"stray end tag before root", `</comment><comment/>`, false},
		{"unclosed root", `<comment>`, false},
		{"mismatched close", `<comment></other>`, false},
	}
	src, dst := miniCastPair(t)
	v := NewValidator(dst)
	c, err := NewCaster(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// The cases run under the name of the tokenizer that reads them; the
	// xmlscan scanner is the only one the walkers use.
	t.Run("scanner", func(t *testing.T) {
		for _, tc := range cases {
			if _, err := v.Validate(strings.NewReader(tc.doc)); (err == nil) != tc.valid {
				t.Errorf("validator %s: got err=%v, want valid=%v", tc.name, err, tc.valid)
			}
			if _, err := c.Validate(strings.NewReader(tc.doc)); (err == nil) != tc.valid {
				t.Errorf("caster %s: got err=%v, want valid=%v", tc.name, err, tc.valid)
			}
		}
	})
}

// A stray end tag must never escape as a panic from full validation or the
// cast, even when fed through a reader that splits tokens across Read
// calls.
func TestStrayEndTagDoesNotPanic(t *testing.T) {
	src, dst := miniCastPair(t)
	v := NewValidator(dst)
	c, err := NewCaster(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{`</a>`, `</comment>`, `<comment/></comment>`, `  </comment>`} {
		if _, err := v.Validate(iotaReader(doc)); err == nil {
			t.Errorf("validator accepted %q", doc)
		}
		if _, err := c.Validate(iotaReader(doc)); err == nil {
			t.Errorf("caster accepted %q", doc)
		}
	}
}

// iotaReader yields the document one byte per Read call, exercising the
// scanner's refill paths around every token boundary.
func iotaReader(s string) *oneByteReader { return &oneByteReader{s: s} }

type oneByteReader struct {
	s string
	i int
}

func (r *oneByteReader) Read(p []byte) (int, error) {
	if r.i >= len(r.s) {
		return 0, io.EOF
	}
	p[0] = r.s[r.i]
	r.i++
	return 1, nil
}
