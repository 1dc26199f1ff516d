package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	revalidate "repro"
	"repro/internal/artifact"
	"repro/internal/xmlscan"
)

// replayBudget is roughly how long each replay loop runs.
const replayBudget = 150 * time.Millisecond

// replay times the public entry points of three layers on the workload's
// own inputs, in this process: xmlscan's tokenizer and the stream caster
// over the documents, and artifact.Decode over blobs fetched from castd's
// GET /artifacts/{key}. Each loop is recorded as a span.
func (r *runner) replay(ctx context.Context) (map[string]float64, []span, error) {
	out := map[string]float64{}
	var spans []span
	record := func(name string, start time.Time, attrs ...attr) {
		a, _ := json.Marshal(attrs)
		spans = append(spans, span{
			TraceID:    fmt.Sprintf("%032x", start.UnixNano()),
			SpanID:     fmt.Sprintf("%016x", len(spans)+1),
			Name:       name,
			Start:      start,
			DurationNS: int64(time.Since(start)),
			Attrs:      a,
		})
	}
	docs := r.in.docs

	// xmlscan: Get + Next to EOF over each document.
	var scanNS, scanBytes int64
	for begin := time.Now(); time.Since(begin) < replayBudget; {
		start := time.Now()
		var n int64
		for _, d := range docs {
			sc := xmlscan.Get(bytes.NewReader(d.body))
			for {
				ev, err := sc.Next()
				if err != nil {
					sc.Release()
					return nil, nil, fmt.Errorf("xmlscan replay: %w", err)
				}
				if ev == xmlscan.EventEOF {
					break
				}
			}
			sc.Release()
			n += int64(len(d.body))
		}
		scanNS += int64(time.Since(start))
		scanBytes += n
		record("xmlscan.tokenize", start, attr{"docs", len(docs)}, attr{"bytes", n})
	}
	out["xmlscan.tokenize_ns_per_byte"] = float64(scanNS) / float64(scanBytes)

	// stream: StreamCaster.ValidateContext per document, median.
	var castUS []float64
	rd := new(bytes.Reader)
	for begin := time.Now(); time.Since(begin) < replayBudget; {
		start := time.Now()
		for _, d := range docs {
			rd.Reset(d.body)
			t := time.Now()
			_, err := r.in.caster.ValidateContext(ctx, rd, revalidate.Limits{})
			castUS = append(castUS, float64(time.Since(t))/float64(time.Microsecond))
			if (err == nil) != d.valid {
				return nil, nil, fmt.Errorf("stream replay: verdict %v, the oracle valid=%v", err, d.valid)
			}
		}
		record("stream.cast", start, attr{"docs", len(docs)})
	}
	out["stream.cast_us"] = median(castUS)
	k := 0
	out["stream.allocs_per_doc"] = testing.AllocsPerRun(len(docs), func() {
		rd.Reset(docs[k%len(docs)].body)
		k++
		r.in.caster.ValidateContext(ctx, rd, revalidate.Limits{})
	})

	// artifact: decode the blobs of up to four pairs (the most requested
	// ones), each several times.
	var decodeMS []float64
	var blobBytes, blobs int
	for p := 0; p < len(r.hashes) && blobs < 4; p++ {
		blob, err := fetchArtifact(r.nodes, artifact.Key(r.hashes[p][0], r.hashes[p][1]))
		if err == errNoArtifact {
			continue // evicted everywhere
		} else if err != nil {
			return nil, nil, err
		}
		blobs++
		blobBytes += len(blob)
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := artifact.Decode(blob); err != nil {
				return nil, nil, fmt.Errorf("artifact replay: %w", err)
			}
			decodeMS = append(decodeMS, float64(time.Since(start))/float64(time.Millisecond))
			record("artifact.decode", start, attr{"pair", p}, attr{"bytes", len(blob)})
		}
	}
	if blobs == 0 {
		return nil, nil, fmt.Errorf("artifact replay: no node holds an artifact of pairs 0..%d", len(r.hashes)-1)
	}
	out["artifact.decode_ms"] = median(decodeMS)
	out["artifact.blob_bytes"] = float64(blobBytes) / float64(blobs)
	return out, spans, nil
}

// attr is a span attribute, in castd's JSON shape.
type attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}
