package registry

import (
	"testing"

	"repro/internal/wgen"
)

// TestRegisterHashPinned pins the content hash Register reports (and
// castd returns in the PUT /schemas body). It keys the pair cache, the
// artifact store and peer ownership, so it must not move when the way
// it is computed changes.
func TestRegisterHashPinned(t *testing.T) {
	r := New(Config{})
	for _, tc := range []struct {
		id, text, root string
		want           string
	}{
		{"xsd", wgen.Figure2XSD(true, 100), "", "6e69bf7605503ed0e5bcf6075d8a79bdf30e1b18fcdbe43cd38270333456167f"},
		{"dtd", `<!ELEMENT po (item*)> <!ELEMENT item (#PCDATA)>`, "po", "af9d1d72eba31cfd3cb4ff0f9c2d013a57a9845921eb73e101affd5428ec5263"},
	} {
		e, err := r.Register(tc.id, tc.text, FormatAuto, tc.root)
		if err != nil {
			t.Fatalf("register %s: %v", tc.id, err)
		}
		if e.Hash != tc.want {
			t.Errorf("%s: hash %s, want %s", tc.id, e.Hash, tc.want)
		}
	}
}
