package xmlscan

import (
	"io"
	"sync"
)

// maxRetainedBuf caps the buffer capacity a released scanner keeps. A
// document with an unusually large token grows the scanner's buffers to
// hold it; retaining those across the pool would let one outlier pin
// memory for the rest of the process, so oversized buffers are dropped
// and the next use re-grows from the default size.
const maxRetainedBuf = 1 << 20

// maxRetainedAttrs caps the attribute spans a released scanner keeps, at
// the same byte budget (an attrSpan is four ints).
const maxRetainedAttrs = maxRetainedBuf / 32

var scannerPool = sync.Pool{New: func() any { return new(Scanner) }}

// Get returns a pooled scanner reset onto r. Steady-state validations
// reuse the read window, name arena, and text buffers of earlier ones, so
// the per-document allocation cost is amortized to zero. Pair with
// Release.
func Get(r io.Reader) *Scanner {
	s := scannerPool.Get().(*Scanner)
	s.Reset(r)
	return s
}

// Release returns s to the pool. The caller must not use s, nor any Name
// or Text view obtained from it, after Release.
func (s *Scanner) Release() {
	s.rd = nil
	if cap(s.buf) > maxRetainedBuf {
		s.buf = nil
	}
	if cap(s.textBuf) > maxRetainedBuf {
		s.textBuf = nil
	}
	if cap(s.names) > maxRetainedBuf {
		s.names = nil
	}
	if cap(s.scratch) > maxRetainedBuf {
		s.scratch = nil
	}
	if cap(s.attrBuf) > maxRetainedBuf {
		s.attrBuf = nil
	}
	if cap(s.attrs) > maxRetainedAttrs {
		s.attrs = nil
	}
	scannerPool.Put(s)
}
