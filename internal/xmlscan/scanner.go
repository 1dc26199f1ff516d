// Package xmlscan is a byte-level XML tokenizer built for the validation
// hot path. It emits only the three event kinds the streaming validators
// consume — element start, element end, and character data — and exposes
// names and text as []byte views so a walker can resolve labels against an
// interned alphabet without allocating. Attributes are always scanned for
// well-formedness; a caller that wants them (a tree builder) turns on
// KeepAttrs and reads each start tag's names and decoded values through
// Attr, while the stream walkers leave it off and pay nothing for them.
// Comments, processing instructions and doctype declarations are consumed
// internally.
//
// The scanner deliberately mirrors encoding/xml's strict-mode acceptance
// behavior (entity handling, character-range checks, \r normalization,
// namespace-name shape, tag matching), so a walker built on it accepts and
// rejects exactly the documents an encoding/xml walker does; the
// differential fuzz targets in internal/stream hold the two
// implementations to that contract. One intentional difference: the
// scanner skips a single UTF-8 byte-order mark at offset 0, and the
// encoding/xml walkers compensate by stripping the same prefix.
//
// Well-formedness that encoding/xml enforces above the tokenizer — end
// tags matching their start tags, no unclosed elements at EOF — is
// enforced here too, so a walker never sees an unbalanced event stream.
package xmlscan

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"unicode"
	"unicode/utf8"
)

// Event is the kind of item Next produced.
type Event int

const (
	// EventEOF means the document is complete; no further events follow.
	EventEOF Event = iota
	// EventStart is an element start tag; Name holds its local name.
	EventStart
	// EventEnd is an element end tag (including the synthetic end of a
	// self-closing tag); Name holds its local name.
	EventEnd
	// EventText is one run of character data (text, decoded entities, or
	// a CDATA section); Text holds the decoded bytes. Every CDATA section
	// produces one, even an empty one, as encoding/xml produces a CharData
	// token for it.
	EventText
)

// SyntaxError reports malformed XML with the input byte offset where the
// scanner gave up.
type SyntaxError struct {
	Msg    string
	Offset int64
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("XML syntax error at byte %d: %s", e.Offset, e.Msg)
}

// errNoName is an internal marker: the current position does not begin a
// name. Callers translate it into a context-specific syntax error.
var errNoName = errors.New("xmlscan: not a name")

const defaultBufSize = 8 << 10

// nameFrame records one open element: its raw tag name lives at
// names[off:off+n], and the local part (after any namespace prefix)
// starts at off+local.
type nameFrame struct {
	off, n, local int
}

// Scanner tokenizes one XML document from an io.Reader. It is not safe
// for concurrent use. The []byte views returned by Name and Text are
// valid only until the next Scanner method call.
type Scanner struct {
	rd  io.Reader
	buf []byte // read window; buf[pos:end] is unconsumed input
	pos int
	end int

	readErr error // deferred reader error (io.EOF or a real failure)
	base    int64 // input offset of buf[0]
	err     error // sticky: first error returned, or io.EOF after a clean end

	names  []byte      // arena of raw open-element names, stack order
	frames []nameFrame // open elements, root first

	textBuf []byte // owned storage for decoded text and attribute values
	scratch []byte // owned storage for end-tag and attribute names

	name []byte // local name of the last start/end event
	text []byte // bytes of the last text event

	pendingEnd bool // a self-closing tag owes its EndElement
	started    bool // the offset-0 BOM check has run

	keepAttrs bool       // KeepAttrs is on
	attrBuf   []byte     // owned storage for kept attribute names and values
	attrs     []attrSpan // kept attributes of the start tag ending at attrsAt
	attrsAt   int64      // input offset just past that start tag
}

// attrSpan locates one kept attribute in attrBuf: its raw name is
// attrBuf[off:val] with the local part from off+local, and its decoded
// value is attrBuf[val:end].
type attrSpan struct {
	off, local, val, end int
}

// NewScanner returns a scanner reading one document from r.
func NewScanner(r io.Reader) *Scanner {
	s := &Scanner{}
	s.Reset(r)
	return s
}

// Reset rewinds the scanner onto a new document, retaining its buffers.
func (s *Scanner) Reset(r io.Reader) {
	s.rd = r
	s.pos, s.end = 0, 0
	s.readErr = nil
	s.base = 0
	s.err = nil
	s.names = s.names[:0]
	s.frames = s.frames[:0]
	s.name, s.text = nil, nil
	s.pendingEnd = false
	s.started = false
	s.keepAttrs = false
	s.attrBuf = s.attrBuf[:0]
	s.attrs = s.attrs[:0]
	if s.buf == nil {
		s.buf = make([]byte, defaultBufSize)
	}
}

// Name returns the local name of the last start or end event. The view is
// valid until the next Scanner method call.
func (s *Scanner) Name() []byte { return s.name }

// Text returns the decoded bytes of the last text event. The view is
// valid until the next Scanner method call.
func (s *Scanner) Text() []byte { return s.text }

// KeepAttrs makes the scanner record the attributes of every start tag
// that has any, for NumAttr and Attr. Reset turns it off again.
func (s *Scanner) KeepAttrs() { s.keepAttrs = true }

// NumAttr reports how many attributes the last start tag carried. It is
// zero unless KeepAttrs is on.
func (s *Scanner) NumAttr() int {
	// An attribute-less "<name>" takes startTag's fast path, which leaves
	// attrs untouched; the offset check tells such a tag from the one the
	// kept attributes belong to.
	if s.attrsAt != s.InputOffset() {
		return 0
	}
	return len(s.attrs)
}

// Attr returns attribute i (0 ≤ i < NumAttr) of the last start tag: its
// raw, possibly prefixed name, the offset of the local part within it
// (split as for element names), and its value with entities decoded and
// \r or \r\n normalized to \n. The views are valid until the next Scanner
// method call.
func (s *Scanner) Attr(i int) (name []byte, local int, value []byte) {
	a := s.attrs[i]
	return s.attrBuf[a.off:a.val], a.local, s.attrBuf[a.val:a.end]
}

// Depth reports the number of currently open elements.
func (s *Scanner) Depth() int { return len(s.frames) }

// InputOffset reports the byte offset of the current scan position.
func (s *Scanner) InputOffset() int64 { return s.base + int64(s.pos) }

func (s *Scanner) syntaxf(format string, args ...any) error {
	return &SyntaxError{Msg: fmt.Sprintf(format, args...), Offset: s.InputOffset()}
}

// fill makes at least one more byte available at buf[pos:end], compacting
// the window and growing the buffer when a token spans it. It returns
// false at EOF or on a reader error (left in readErr).
func (s *Scanner) fill() bool {
	if s.readErr != nil {
		return false
	}
	if s.pos > 0 {
		n := copy(s.buf, s.buf[s.pos:s.end])
		s.base += int64(s.pos)
		s.pos, s.end = 0, n
	}
	if s.end == len(s.buf) {
		grown := make([]byte, 2*len(s.buf))
		copy(grown, s.buf[:s.end])
		s.buf = grown
	}
	for {
		n, err := s.rd.Read(s.buf[s.end:])
		s.end += n
		if err != nil {
			s.readErr = err
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
}

// getc consumes one byte. ok is false at EOF or on a reader error.
func (s *Scanner) getc() (byte, bool) {
	if s.pos >= s.end && !s.fill() {
		return 0, false
	}
	b := s.buf[s.pos]
	s.pos++
	return b, true
}

// ungetc puts back the byte just consumed by getc. It is valid only
// immediately after a successful getc, before any other scanner call.
func (s *Scanner) ungetc() { s.pos-- }

// eofErr is the error for input ending inside a token: the reader's own
// failure if there was one, otherwise a syntax error, mirroring
// encoding/xml's mustgetc.
func (s *Scanner) eofErr() error {
	if s.readErr != nil && s.readErr != io.EOF {
		return s.readErr
	}
	return s.syntaxf("unexpected EOF")
}

func (s *Scanner) mustgetc() (byte, error) {
	if b, ok := s.getc(); ok {
		return b, nil
	}
	return 0, s.eofErr()
}

// space consumes XML whitespace (space, tab, CR, LF).
func (s *Scanner) space() {
	for {
		if s.pos >= s.end && !s.fill() {
			return
		}
		switch s.buf[s.pos] {
		case ' ', '\r', '\n', '\t':
			s.pos++
		default:
			return
		}
	}
}

// fail records err as the scanner's sticky error and returns it.
func (s *Scanner) fail(err error) (Event, error) {
	s.err = err
	return EventEOF, err
}

// Next returns the next start, end, or text event, EventEOF with a nil
// error at the clean end of the document, or EventEOF with the error that
// ended the scan. After an error every call returns the same error.
func (s *Scanner) Next() (Event, error) {
	if s.err != nil {
		if s.err == io.EOF {
			return EventEOF, nil
		}
		return EventEOF, s.err
	}
	if s.pendingEnd {
		s.pendingEnd = false
		return s.popFrame()
	}
	if !s.started {
		s.started = true
		s.skipBOM()
	}
	for {
		hasText, err := s.textRun(true)
		if err != nil {
			return s.fail(err)
		}
		if hasText {
			return EventText, nil
		}
		// The run ended at '<' or at end of input.
		b, ok := s.getc()
		if !ok {
			if s.readErr != io.EOF {
				return s.fail(s.readErr)
			}
			if len(s.frames) > 0 {
				return s.fail(s.syntaxf("unexpected EOF"))
			}
			s.err = io.EOF
			return EventEOF, nil
		}
		_ = b // always '<': textRun stops only there
		b, err = s.mustgetc()
		if err != nil {
			return s.fail(err)
		}
		switch b {
		case '/':
			return s.endTag()
		case '?':
			if err := s.procInst(); err != nil {
				return s.fail(err)
			}
		case '!':
			isCData, err := s.bang()
			if err != nil {
				return s.fail(err)
			}
			if isCData {
				if err := s.textInto(-1, true, true); err != nil {
					return s.fail(err)
				}
				return EventText, nil
			}
		default:
			s.ungetc()
			return s.startTag()
		}
	}
}

// skipBOM consumes a single UTF-8 byte-order mark at offset 0.
func (s *Scanner) skipBOM() {
	for s.end-s.pos < 3 && s.readErr == nil {
		if !s.fill() {
			break
		}
	}
	if s.end-s.pos >= 3 && s.buf[s.pos] == 0xEF && s.buf[s.pos+1] == 0xBB && s.buf[s.pos+2] == 0xBF {
		s.pos += 3
	}
}

// textSlow marks bytes a character-data fast path cannot take as-is:
// control characters (illegal or needing \r normalization), '&' (entity),
// ']' (potential "]]>"), and all non-ASCII (UTF-8 validation).
var textSlow = func() (t [256]bool) {
	for i := 0; i < 0x20; i++ {
		t[i] = true
	}
	t['\t'], t['\n'] = false, false
	t['&'], t[']'] = true, true
	for i := 0x80; i < 256; i++ {
		t[i] = true
	}
	return
}()

// textRun consumes character data up to the next '<' (left unconsumed) or
// end of input. With store it records the decoded bytes in s.text and
// reports whether any text was produced; without, the data is validated
// and discarded.
func (s *Scanner) textRun(store bool) (bool, error) {
	s.text = nil
	if s.pos >= s.end && !s.fill() {
		return false, nil
	}
	// Fast path: a complete run of plain ASCII ending at a '<' inside the
	// window needs no decoding, no normalization, and no copying. Text
	// runs are typically a few bytes, so one merged scan beats an
	// IndexByte call (whose setup cost outweighs short scans) followed by
	// a cleanliness pass.
	win := s.buf[s.pos:s.end]
	for i := 0; i < len(win); i++ {
		c := win[i]
		if c == '<' {
			s.pos += i
			if store && i > 0 {
				s.text = win[:i]
				return true, nil
			}
			return false, nil
		}
		if textSlow[c] {
			break
		}
	}
	if err := s.textInto(-1, false, store); err != nil {
		return false, err
	}
	return store && len(s.text) > 0, nil
}

// textInto is the general character-data scanner, mirroring encoding/xml's
// text(quote, cdata). quote < 0 scans plain text up to an unconsumed '<'
// or end of input; quote >= 0 scans a quoted attribute value up to the
// consumed quote byte; cdata scans to a consumed "]]>". Decoded bytes
// land in s.textBuf (and s.text when store is set) and are checked
// against the XML character range.
func (s *Scanner) textInto(quote int, cdata bool, store bool) error {
	var b0, b1 byte
	dst := s.textBuf[:0]
	for {
		b, ok := s.getc()
		if !ok {
			if s.readErr != io.EOF {
				return s.readErr
			}
			if cdata {
				return s.syntaxf("unexpected EOF in CDATA section")
			}
			if quote >= 0 {
				return s.eofErr()
			}
			break
		}
		if quote < 0 && b0 == ']' && b1 == ']' && b == '>' {
			if cdata {
				dst = dst[:len(dst)-2]
				break
			}
			return s.syntaxf("unescaped ]]> not in CDATA section")
		}
		if b == '<' && !cdata {
			if quote >= 0 {
				return s.syntaxf("unescaped < inside quoted string")
			}
			s.ungetc()
			break
		}
		if quote >= 0 && b == byte(quote) {
			break
		}
		if b == '&' && !cdata {
			var err error
			dst, err = s.entity(dst)
			if err != nil {
				return err
			}
			b0, b1 = 0, 0
			continue
		}
		// Rewrite unescaped \r and \r\n into \n.
		if b == '\r' {
			dst = append(dst, '\n')
		} else if b1 == '\r' && b == '\n' {
			// already wrote \n
		} else {
			dst = append(dst, b)
		}
		b0, b1 = b1, b
	}
	s.textBuf = dst
	if err := s.validateChars(dst); err != nil {
		return err
	}
	if store {
		s.text = dst
	}
	return nil
}

// entity decodes one character or named entity reference (the '&' is
// already consumed) and appends its expansion to dst.
func (s *Scanner) entity(dst []byte) ([]byte, error) {
	b, err := s.mustgetc()
	if err != nil {
		return dst, err
	}
	if b == '#' {
		base := uint64(10)
		b, err = s.mustgetc()
		if err != nil {
			return dst, err
		}
		if b == 'x' {
			base = 16
			b, err = s.mustgetc()
			if err != nil {
				return dst, err
			}
		}
		var n uint64
		digits, overflow := 0, false
		for {
			var d uint64
			switch {
			case '0' <= b && b <= '9':
				d = uint64(b - '0')
			case base == 16 && 'a' <= b && b <= 'f':
				d = uint64(b-'a') + 10
			case base == 16 && 'A' <= b && b <= 'F':
				d = uint64(b-'A') + 10
			default:
				goto digitsDone
			}
			digits++
			if n > unicode.MaxRune {
				overflow = true
			} else {
				n = n*base + d
			}
			b, err = s.mustgetc()
			if err != nil {
				return dst, err
			}
		}
	digitsDone:
		if b != ';' {
			s.ungetc()
			return dst, s.syntaxf("invalid character entity (no semicolon)")
		}
		if digits == 0 || overflow || n > unicode.MaxRune {
			return dst, s.syntaxf("invalid character entity")
		}
		// utf8.AppendRune encodes surrogates as U+FFFD, matching
		// string(rune(n)).
		return utf8.AppendRune(dst, rune(n)), nil
	}
	s.ungetc()
	var tmp [8]byte
	nameLen, tooLong := 0, false
	for {
		b, err = s.mustgetc()
		if err != nil {
			return dst, err
		}
		if !isNameByte(b) && b < utf8.RuneSelf {
			break
		}
		if nameLen < len(tmp) {
			tmp[nameLen] = b
			nameLen++
		} else {
			tooLong = true
		}
	}
	if b != ';' {
		s.ungetc()
		return dst, s.syntaxf("invalid character entity (no semicolon)")
	}
	if !tooLong {
		var r byte
		switch string(tmp[:nameLen]) {
		case "lt":
			r = '<'
		case "gt":
			r = '>'
		case "amp":
			r = '&'
		case "apos":
			r = '\''
		case "quot":
			r = '"'
		}
		if r != 0 {
			return append(dst, r), nil
		}
	}
	return dst, s.syntaxf("invalid character entity")
}

// validateChars rejects invalid UTF-8 and characters outside the XML
// character range, mirroring the scan encoding/xml runs on decoded text.
func (s *Scanner) validateChars(data []byte) error {
	for i := 0; i < len(data); {
		if c := data[i]; c < utf8.RuneSelf {
			if c >= 0x20 || c == '\t' || c == '\n' || c == '\r' {
				i++
				continue
			}
			return s.syntaxf("illegal character code %U", rune(c))
		}
		r, size := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && size == 1 {
			return s.syntaxf("invalid UTF-8")
		}
		if !inCharRange(r) {
			return s.syntaxf("illegal character code %U", r)
		}
		i += size
	}
	return nil
}

// inCharRange reports whether r is in the XML 1.0 Char production.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// isNameByte reports whether b may appear in a name (ASCII part of the
// NameChar class; multi-byte runes are validated separately).
func isNameByte(b byte) bool {
	return 'A' <= b && b <= 'Z' || 'a' <= b && b <= 'z' ||
		'0' <= b && b <= '9' ||
		b == '_' || b == ':' || b == '.' || b == '-'
}

// readName consumes one name and appends its raw bytes to dst. A leading
// non-name byte is left unconsumed and reported as errNoName; input
// ending during or immediately after the name is an unexpected-EOF error,
// matching encoding/xml's readName.
func (s *Scanner) readName(dst []byte) ([]byte, error) {
	b, ok := s.getc()
	if !ok {
		return dst, s.eofErr()
	}
	if b < utf8.RuneSelf && !isNameByte(b) {
		s.ungetc()
		return dst, errNoName
	}
	dst = append(dst, b)
	for {
		i := s.pos
		for i < s.end {
			if c := s.buf[i]; c < utf8.RuneSelf && !isNameByte(c) {
				dst = append(dst, s.buf[s.pos:i]...)
				s.pos = i
				return dst, nil
			}
			i++
		}
		dst = append(dst, s.buf[s.pos:i]...)
		s.pos = i
		if !s.fill() {
			return dst, s.eofErr()
		}
	}
}

// checkName reports whether raw is a well-formed XML name. The scanner
// only admits name bytes in the ASCII range, so the fast path needs to
// vet just the first byte.
func checkName(raw []byte) bool {
	if len(raw) == 0 {
		return false
	}
	ascii := true
	for _, b := range raw {
		if b >= utf8.RuneSelf {
			ascii = false
			break
		}
	}
	if ascii {
		b := raw[0]
		return 'A' <= b && b <= 'Z' || 'a' <= b && b <= 'z' || b == '_' || b == ':'
	}
	c, n := utf8.DecodeRune(raw)
	if c == utf8.RuneError && n == 1 || !unicode.Is(nameFirst, c) {
		return false
	}
	for i := n; i < len(raw); i += n {
		c, n = utf8.DecodeRune(raw[i:])
		if c == utf8.RuneError && n == 1 {
			return false
		}
		if !unicode.Is(nameFirst, c) && !unicode.Is(nameRest, c) {
			return false
		}
	}
	return true
}

// localOffset locates the local part of a possibly prefixed name,
// mirroring encoding/xml's nsname: more than one colon is malformed, and
// the name splits only when both halves are non-empty.
func localOffset(raw []byte) (int, bool) {
	// Names are a handful of bytes; plain loops beat IndexByte's call
	// setup at these lengths.
	i := 0
	for i < len(raw) && raw[i] != ':' {
		i++
	}
	if i == len(raw) {
		return 0, true
	}
	for j := i + 1; j < len(raw); j++ {
		if raw[j] == ':' {
			return 0, false
		}
	}
	if i == 0 || i == len(raw)-1 {
		return 0, true
	}
	return i + 1, true
}

// parseNSName reads and validates one element or attribute name,
// appending its raw bytes to dst and returning the local-part offset.
// errNoName (bad first byte, or a malformed prefix shape) is returned for
// the caller to wrap with context.
func (s *Scanner) parseNSName(dst []byte) ([]byte, int, error) {
	// Fast path: an all-ASCII name with a valid first byte and at most one
	// colon, ending inside the buffered window. One scan replaces
	// readName's byte-wise copy loop, checkName's re-walk and
	// localOffset's colon search. Anything unusual — non-ASCII, a second
	// colon, a window boundary, a bad first byte — falls through to the
	// general path for the exact shared error behavior.
	if s.pos < s.end {
		win := s.buf[s.pos:s.end]
		if c := win[0]; 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':' {
			colon := -1
			if c == ':' {
				colon = 0
			}
			i := 1
			for i < len(win) {
				c := win[i]
				if c >= utf8.RuneSelf || !isNameByte(c) {
					break
				}
				if c == ':' {
					if colon >= 0 {
						colon = -2 // second colon: malformed shape
						break
					}
					colon = i
				}
				i++
			}
			if i < len(win) && win[i] < utf8.RuneSelf && colon != -2 {
				dst = append(dst, win[:i]...)
				s.pos += i
				local := 0
				if colon > 0 && colon < i-1 {
					local = colon + 1
				}
				return dst, local, nil
			}
		}
	}
	start := len(dst)
	dst, err := s.readName(dst)
	if err != nil {
		return dst, 0, err
	}
	raw := dst[start:]
	if !checkName(raw) {
		return dst, 0, s.syntaxf("invalid XML name: %s", raw)
	}
	local, ok := localOffset(raw)
	if !ok {
		return dst, 0, errNoName
	}
	return dst, local, nil
}

// startTag parses an element tag from just after '<', pushes its frame,
// and returns EventStart. A self-closing tag owes an EventEnd on the next
// call.
func (s *Scanner) startTag() (Event, error) {
	off := len(s.names)
	names, local, err := s.parseNSName(s.names)
	s.names = names
	if err != nil {
		if err == errNoName {
			err = s.syntaxf("expected element name after <")
		}
		return s.fail(err)
	}
	n := len(s.names) - off
	// Fast path for the overwhelmingly common attribute-less "<name>".
	if s.pos < s.end && s.buf[s.pos] == '>' {
		s.pos++
		s.frames = append(s.frames, nameFrame{off: off, n: n, local: local})
		s.name = s.names[off+local : off+n]
		return EventStart, nil
	}
	if s.keepAttrs {
		s.attrBuf, s.attrs = s.attrBuf[:0], s.attrs[:0]
	}
	for {
		s.space()
		b, err := s.mustgetc()
		if err != nil {
			return s.fail(err)
		}
		if b == '/' {
			b, err = s.mustgetc()
			if err != nil {
				return s.fail(err)
			}
			if b != '>' {
				return s.fail(s.syntaxf("expected /> in element"))
			}
			s.pendingEnd = true
			break
		}
		if b == '>' {
			break
		}
		s.ungetc()
		if err := s.attr(); err != nil {
			return s.fail(err)
		}
	}
	s.frames = append(s.frames, nameFrame{off: off, n: n, local: local})
	s.name = s.names[off+local : off+n]
	if s.keepAttrs {
		s.attrsAt = s.InputOffset()
	}
	return EventStart, nil
}

// attr parses and validates one attribute, appending it to attrs when
// KeepAttrs is on.
func (s *Scanner) attr() error {
	var (
		off, local int
		err        error
	)
	if s.keepAttrs {
		off = len(s.attrBuf)
		s.attrBuf, local, err = s.parseNSName(s.attrBuf)
	} else {
		s.scratch, _, err = s.parseNSName(s.scratch[:0])
	}
	if err != nil {
		if err == errNoName {
			err = s.syntaxf("expected attribute name in element")
		}
		return err
	}
	s.space()
	b, err := s.mustgetc()
	if err != nil {
		return err
	}
	if b != '=' {
		return s.syntaxf("attribute name without = in element")
	}
	s.space()
	b, err = s.mustgetc()
	if err != nil {
		return err
	}
	if b != '"' && b != '\'' {
		return s.syntaxf("unquoted or missing attribute value in element")
	}
	// Fast path: a clean ASCII value ending at its quote inside the window
	// needs no decoding. ']' and '&' fall through to the full scanner (']'
	// is legal in attribute values but the table is shared with text), as
	// does '<' (illegal here — textInto reports it).
	var value []byte
	clean := false
	win := s.buf[s.pos:s.end]
	for i := 0; i < len(win); i++ {
		c := win[i]
		if c == b {
			s.pos += i + 1
			value, clean = win[:i], true
			break
		}
		if textSlow[c] || c == '<' {
			break
		}
	}
	if !clean {
		if err := s.textInto(int(b), false, false); err != nil {
			return err
		}
		value = s.textBuf
	}
	if s.keepAttrs {
		val := len(s.attrBuf)
		s.attrBuf = append(s.attrBuf, value...)
		s.attrs = append(s.attrs, attrSpan{off: off, local: local, val: val, end: len(s.attrBuf)})
	}
	return nil
}

// endTag parses an end tag from just after "</", requires it to close the
// innermost open element, and pops that element's frame.
func (s *Scanner) endTag() (Event, error) {
	// Fast path: a well-formed end tag is exactly the innermost open
	// element's raw name followed by '>', and that name is already in the
	// arena — no parsing, validation or copying needed when the buffered
	// window matches it byte for byte. Anything else (whitespace before
	// '>', a short buffer, a genuinely wrong tag) falls through to the
	// full parse, which produces the identical result or error.
	if n := len(s.frames); n > 0 {
		top := s.frames[n-1]
		if s.end-s.pos > top.n && s.buf[s.pos+top.n] == '>' &&
			bytes.Equal(s.buf[s.pos:s.pos+top.n], s.names[top.off:top.off+top.n]) {
			s.pos += top.n + 1
			return s.popFrame()
		}
	}
	scratch, _, err := s.parseNSName(s.scratch[:0])
	s.scratch = scratch
	if err != nil {
		if err == errNoName {
			err = s.syntaxf("expected element name after </")
		}
		return s.fail(err)
	}
	s.space()
	b, err := s.mustgetc()
	if err != nil {
		return s.fail(err)
	}
	if b != '>' {
		return s.fail(s.syntaxf("invalid characters between </%s and >", s.scratch))
	}
	if len(s.frames) == 0 {
		return s.fail(s.syntaxf("unexpected end element </%s>", s.scratch))
	}
	top := s.frames[len(s.frames)-1]
	if !bytes.Equal(s.scratch, s.names[top.off:top.off+top.n]) {
		return s.fail(s.syntaxf("element <%s> closed by </%s>",
			s.names[top.off:top.off+top.n], s.scratch))
	}
	return s.popFrame()
}

// popFrame closes the innermost open element, setting Name to its local
// name (the arena bytes stay valid until the next call appends).
func (s *Scanner) popFrame() (Event, error) {
	top := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	s.name = s.names[top.off+top.local : top.off+top.n]
	s.names = s.names[:top.off]
	return EventEnd, nil
}

// procInst consumes a processing instruction from just after "<?",
// enforcing the version and encoding restrictions encoding/xml applies to
// the xml declaration.
func (s *Scanner) procInst() error {
	scratch, err := s.readName(s.scratch[:0])
	s.scratch = scratch
	if err != nil {
		if err == errNoName {
			return s.syntaxf("expected target name after <?")
		}
		return err
	}
	if !checkName(s.scratch) {
		return s.syntaxf("invalid XML name: %s", s.scratch)
	}
	isXML := string(s.scratch) == "xml"
	s.space()
	var body []byte
	if isXML {
		body = s.textBuf[:0]
	}
	var b0 byte
	for {
		b, err := s.mustgetc()
		if err != nil {
			return err
		}
		if isXML {
			body = append(body, b)
		}
		if b0 == '?' && b == '>' {
			break
		}
		b0 = b
	}
	if isXML {
		s.textBuf = body
		content := string(body[:len(body)-2])
		if ver := procInstParam("version", content); ver != "" && ver != "1.0" {
			return s.syntaxf("unsupported version %q; only version 1.0 is supported", ver)
		}
		if enc := procInstParam("encoding", content); enc != "" && !equalFoldASCII(enc, "utf-8") {
			return s.syntaxf("encoding %q declared but only UTF-8 is supported", enc)
		}
	}
	return nil
}

// procInstParam extracts a pseudo-attribute from an xml declaration body,
// ported from encoding/xml's procInst so quirky inputs parse identically.
func procInstParam(param, s string) string {
	param = param + "="
	lenp := len(param)
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := indexString(sub, param)
		if k < 0 || lenp+k >= len(sub) {
			return ""
		}
		i += lenp + k + 1
		if c := sub[lenp+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := indexByteString(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

func indexString(s, sub string) int {
	return bytes.Index([]byte(s), []byte(sub))
}

func indexByteString(s string, b byte) int {
	return bytes.IndexByte([]byte(s), b)
}

func equalFoldASCII(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// bang consumes markup after "<!": a comment, a directive, or — when it
// reports isCData — the "<![CDATA[" opener, leaving the section body for
// the caller.
func (s *Scanner) bang() (isCData bool, err error) {
	b, err := s.mustgetc()
	if err != nil {
		return false, err
	}
	switch b {
	case '-':
		if b, err = s.mustgetc(); err != nil {
			return false, err
		}
		if b != '-' {
			return false, s.syntaxf("invalid sequence <!- not part of <!--")
		}
		return false, s.comment()
	case '[':
		for i := 0; i < 6; i++ {
			if b, err = s.mustgetc(); err != nil {
				return false, err
			}
			if b != "CDATA["[i] {
				return false, s.syntaxf("invalid <![ sequence")
			}
		}
		return true, nil
	}
	return false, s.directive()
}

// comment consumes a comment body up to "-->"; "--" not followed by '>'
// is malformed, as in encoding/xml.
func (s *Scanner) comment() error {
	var b0, b1 byte
	for {
		b, err := s.mustgetc()
		if err != nil {
			return err
		}
		if b0 == '-' && b1 == '-' {
			if b != '>' {
				return s.syntaxf(`invalid sequence "--" not allowed in comments`)
			}
			return nil
		}
		b0, b1 = b1, b
	}
}

// directive consumes a <!DOCTYPE ...>-style declaration, counting nested
// angle brackets outside quotes and skipping embedded comments — a
// faithful port of encoding/xml's directive loop, including its quirk
// that the first body byte receives no quote or bracket handling.
func (s *Scanner) directive() error {
	var inquote byte
	depth := 0
	for {
		b, err := s.mustgetc()
		if err != nil {
			return err
		}
		if inquote == 0 && b == '>' && depth == 0 {
			return nil
		}
	handleB:
		switch {
		case b == inquote && inquote != 0:
			inquote = 0
		case inquote != 0:
			// in quotes, no special action
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			for i := 0; i < 3; i++ {
				if b, err = s.mustgetc(); err != nil {
					return err
				}
				if b != "!--"[i] {
					depth++
					goto handleB
				}
			}
			var b0, b1 byte
			for {
				if b, err = s.mustgetc(); err != nil {
					return err
				}
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
}
