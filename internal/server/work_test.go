package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/registry"
	"repro/internal/wgen"
)

// TestMetricsJSONStreamTotals: /metrics.json's stream object reads the
// same families /metrics does, so after the Fig. 1a → Fig. 2 cast it
// carries every table counter and the work-saved ratio, not just the four
// it once copied by hand.
func TestMetricsJSONStreamTotals(t *testing.T) {
	ts := newTestServer(t, registry.Config{})
	registerFigSchemas(t, ts.URL)
	if code, body := do(t, "POST", ts.URL+"/cast/v1/v2", poXML(true)); code != 200 {
		t.Fatalf("cast: %d %s", code, body)
	}
	_, body := do(t, "GET", ts.URL+"/metrics.json", "")
	var m struct {
		Stream map[string]float64 `json:"stream"`
	}
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("metrics JSON: %v in %s", err, body)
	}
	for key, want := range map[string]float64{
		"elementsVisited": 4, "elementsSkimmed": 24,
		"subsumedSkips": 3, "symbolsSkipped": 1, "workSavedRatio": 24.0 / 28,
	} {
		if got := m.Stream[key]; got != want {
			t.Errorf("stream.%s = %v, want %v", key, got, want)
		}
	}
	if _, ok := m.Stream["maxDepth"]; ok {
		t.Errorf("stream carries maxDepth, which no family keeps: %v", m.Stream)
	}
}

// statsKeys are the keys of every cast and batch answer's stats object:
// the eight counters castload compares answer by answer, plus the ratio.
var statsKeys = []string{
	"automatonSteps", "disjointRejects", "elementsSkimmed", "elementsVisited",
	"maxDepth", "subsumedSkips", "symbolsSkipped", "valuesChecked", "workSavedRatio",
}

// workExports says, independently of workRows, which stats key each
// family and span attribute must carry.
var workExports = []struct{ key, family, attr string }{
	{"elementsVisited", "cast_elements_visited_total", "elements.visited"},
	{"elementsSkimmed", "cast_elements_skimmed_total", "elements.skimmed"},
	{"subsumedSkips", "cast_subtrees_skipped_total", "subtrees.skipped"},
	{"disjointRejects", "cast_subtrees_rejected_total", "subtrees.rejected"},
	{"automatonSteps", "cast_symbols_scanned_total", "symbols.scanned"},
	{"symbolsSkipped", "cast_symbols_skipped_total", "symbols.skipped"},
	{"valuesChecked", "cast_values_checked_total", "values.checked"},
}

// TestWorkCounterTable: for one cast and one batch on a traced server,
// every counter of the table reads the same in the JSON answer, in the
// delta of its /metrics family and on the request's cast span.
func TestWorkCounterTable(t *testing.T) {
	if len(workRows) != len(workExports) {
		t.Fatalf("workRows has %d rows, workExports %d", len(workRows), len(workExports))
	}
	ts, _, _ := newTracedServer(t)
	registerFigSchemas(t, ts.URL)
	if code, body := do(t, "PUT", ts.URL+"/schemas/v3", wgen.Figure2XSD(false, 200)); code != 200 {
		t.Fatalf("register v3: %d %s", code, body)
	}
	batch, _ := json.Marshal([]string{poXML(true), poXML(false), poXML(true)})
	for i, c := range []struct {
		name, path, body, span string
	}{
		{"cast", "/cast/v1/v2", poXML(true), "cast.validate"},
		{"batch", "/cast/v3/v2/batch", string(batch), "cast.batch"},
	} {
		t.Run(c.name, func(t *testing.T) {
			traceID := fmt.Sprintf("%032x", 0xc0ffee00+i)
			before := workFamilies(t, ts.URL)
			req, err := http.NewRequest("POST", ts.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var answer struct {
				Stats json.RawMessage `json:"stats"`
			}
			err = json.NewDecoder(resp.Body).Decode(&answer)
			resp.Body.Close()
			if err != nil || resp.StatusCode != 200 {
				t.Fatalf("%s: %d %v", c.path, resp.StatusCode, err)
			}
			var keys map[string]float64
			if err := json.Unmarshal(answer.Stats, &keys); err != nil {
				t.Fatal(err)
			}
			var got []string
			for k := range keys {
				got = append(got, k)
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(statsKeys, " ") {
				t.Errorf("stats keys = %v, want %v", got, statsKeys)
			}
			if keys["elementsVisited"] == 0 || keys["elementsSkimmed"] == 0 || keys["subsumedSkips"] == 0 {
				t.Fatalf("the cast did no work worth comparing: %v", keys)
			}
			after := workFamilies(t, ts.URL)
			sp, ok := findSpan(getTrace(t, ts.URL, traceID), c.span)
			if !ok {
				t.Fatalf("no %s span", c.span)
			}
			for _, e := range workExports {
				want := int64(keys[e.key])
				if d := after[e.family] - before[e.family]; d != want {
					t.Errorf("%s moved by %d, stats.%s is %d", e.family, d, e.key, want)
				}
				if !hasAttr(sp, e.attr, want) {
					t.Errorf("%s span: %s != stats.%s = %d (attrs %v)", c.span, e.attr, e.key, want, sp.Attrs)
				}
			}
		})
	}
}

// workFamilies scrapes /metrics for the value of every table family.
func workFamilies(t *testing.T, base string) map[string]int64 {
	t.Helper()
	_, body := do(t, "GET", base+"/metrics", "")
	out := map[string]int64{}
	for _, line := range strings.Split(body, "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		for _, e := range workExports {
			if name == e.family {
				n, err := strconv.ParseInt(value, 10, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				out[name] = n
			}
		}
	}
	if len(out) != len(workExports) {
		t.Fatalf("scraped %v, want one sample per work family", out)
	}
	return out
}

// keyXSD declares an xs:key, which no cast path checks.
const keyXSD = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="items" type="ItemsType">
    <xsd:key name="skuKey">
      <xsd:selector xpath="item"/>
      <xsd:field xpath="sku"/>
    </xsd:key>
  </xsd:element>
  <xsd:complexType name="ItemsType">
    <xsd:sequence>
      <xsd:element name="item" type="ItemType" minOccurs="0" maxOccurs="unbounded"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="ItemType">
    <xsd:sequence>
      <xsd:element name="sku" type="xsd:string"/>
    </xsd:sequence>
  </xsd:complexType>
</xsd:schema>`

// TestRegisterRefusesIdentityConstraints: a schema with an xs:key is
// refused with 422 and a JSON error naming the key, since a cast would
// answer "valid" for a document with duplicate keys.
func TestRegisterRefusesIdentityConstraints(t *testing.T) {
	ts := newTestServer(t, registry.Config{})
	code, body := do(t, "PUT", ts.URL+"/schemas/keyed", keyXSD)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("register: %d %s, want 422", code, body)
	}
	var e errorBody
	if err := json.Unmarshal([]byte(body), &e); err != nil || !strings.Contains(e.Error, "skuKey") {
		t.Fatalf("error body %s does not name the key (%v)", body, err)
	}
	if code, _ := do(t, "GET", ts.URL+"/schemas/keyed", ""); code != http.StatusNotFound {
		t.Fatalf("refused schema is bound: GET answered %d", code)
	}
}
