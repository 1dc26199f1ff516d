package stream

import (
	"bytes"
	"testing"

	"repro/internal/wgen"
)

func BenchmarkStreamCast500(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	data := po500()
	c, err := NewCaster(ps.Source1, ps.Target)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Validate(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamFull500(b *testing.B) {
	ps := wgen.NewPaperSchemas()
	data := po500()
	v := NewValidator(ps.Target)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Validate(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
