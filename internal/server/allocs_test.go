package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/registry"
	"repro/internal/wgen"
)

// castAllocsMax pins the allocations of one untraced POST /cast on a warm
// pair through ServeHTTP, the request and the recorder included, at the
// measured count. It was 41 while the hot-pair label was hashed from both
// content hashes on every cast; the label now comes from the key the
// registry stores on the pair. It was 38 while every cast parsed its
// (usually empty) query into a map to read ?explain.
const castAllocsMax = 37

func TestCastAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race")
	}
	reg := registry.New(registry.Config{MaxEntries: 64}) // castd's default cap
	for id, optional := range map[string]bool{"v1": true, "v2": false} {
		if _, err := reg.Register(id, wgen.Figure2XSD(optional, 100), registry.FormatAuto, ""); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(reg, Options{})
	t.Cleanup(srv.Close)
	doc := poXML(true)
	cast := func() {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/cast/v1/v2", strings.NewReader(doc)))
		if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"valid":true`) {
			t.Fatalf("cast answered %d %s", w.Code, w.Body)
		}
	}
	cast() // compile the pair
	if got := testing.AllocsPerRun(200, cast); got > castAllocsMax {
		t.Fatalf("untraced warm cast allocates %.0f times, want at most %d", got, castAllocsMax)
	}
}
