package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"repro/internal/core"
	"repro/internal/engine"
)

// The hot routes' wire codec: request bodies decode and answers encode
// without encoding/json's reflection. The struct tags on the request types
// still document the wire format, and the tests hold both directions to
// encoding/json byte for byte and value for value.

// encPool recycles encoders, buffer and all; readBody borrows one for the
// request body too. maxPooledBuf caps what goes back, so one huge answer
// or body does not stay resident.
var encPool = sync.Pool{New: func() any { return &enc{b: make([]byte, 0, 4096)} }}

const maxPooledBuf = 64 << 10

func getEnc() *enc {
	e := encPool.Get().(*enc)
	e.b, e.bad = e.b[:0], false
	return e
}

func putEnc(e *enc) {
	if cap(e.b) <= maxPooledBuf {
		encPool.Put(e)
	}
}

// ---- Decoding ----

// readBody decodes the request body with decode. The body is read into a
// pooled buffer that decode must not retain. A body cut short by a read
// error (the MaxBytesReader limit above all) is decoded as far as it got:
// json.Decoder, too, stops reading at the end of the first value, so a value
// complete before the error is accepted, and an incomplete one is rejected
// with the read error.
func readBody(r *http.Request, decode func([]byte) error) error {
	buf := getEnc()
	defer putEnc(buf)
	b := buf.b
	var readErr error
	for readErr == nil {
		if len(b) == cap(b) {
			b = slices.Grow(b, max(len(b), 512))
		}
		var n int
		n, readErr = r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
	}
	buf.b = b
	if err := decode(b); err != nil {
		if readErr != io.EOF {
			return readErr
		}
		return err
	}
	return nil
}

// maxDepth is encoding/json's nesting limit: a body nesting objects and
// arrays deeper is rejected even inside an unknown field.
const maxDepth = 10000

// decoder is a JSON decoder for exactly the two hot request types. It
// accepts what json.Decoder.Decode accepts into them and yields the same
// values: insignificant whitespace; members in any order; keys matched by
// bytes.EqualFold after unescaping; unknown members skipped but validated;
// a repeated key decoding again over the value already there (a second
// "region" merges into the first, an array overwrites elements in place and
// a shorter one leaves the rest in the backing array for a later longer one
// to see, as reflect's SetLen does); null leaving numbers and structs alone
// and setting slices and pointers to nil; [] making an empty non-nil slice;
// the JSON number grammar checked before strconv; and every byte after the
// first value ignored. There is deliberately no fallback to encoding/json:
// a second decoder on the hot path is a second behaviour to keep equal.
type decoder struct {
	b      []byte
	pos    int
	depth  int
	keyBuf []byte
}

// begin skips to the body's first value and reports whether it is an
// object to decode; a top-level null is accepted as nothing to decode, since
// encoding/json leaves a struct alone for it.
func (d *decoder) begin() (bool, error) {
	d.ws()
	switch d.peek() {
	case '{':
		return true, nil
	case 'n':
		return false, d.literal("null")
	}
	if d.pos == len(d.b) {
		return false, errors.New("empty body")
	}
	return false, d.fail("request body must be a JSON object")
}

func decodeQuery(b []byte, q *queryRequest) error {
	d := decoder{b: b}
	if obj, err := d.begin(); !obj {
		return err
	}
	return d.object(func(key []byte) error {
		switch {
		case foldEq(key, "k"):
			return d.int(&q.K)
		case foldEq(key, "region"):
			return d.region(&q.Region)
		case foldEq(key, "halfspaces"):
			return decodeArray(&d, &q.Halfspaces)
		}
		return d.skip()
	})
}

func decodeUpdate(b []byte, req *updateRequest) error {
	d := decoder{b: b}
	if obj, err := d.begin(); !obj {
		return err
	}
	return d.object(func(key []byte) error {
		switch {
		case foldEq(key, "delete"):
			return decodeArray(&d, &req.Delete)
		case foldEq(key, "insert"):
			return decodeArray(&d, &req.Insert)
		}
		return d.skip()
	})
}

func (d *decoder) region(p **regionBody) error {
	if d.peek() == 'n' {
		*p = nil
		return d.literal("null")
	}
	if *p == nil {
		*p = new(regionBody)
	}
	r := *p
	return d.object(func(key []byte) error {
		switch {
		case foldEq(key, "lo"):
			return decodeArray(d, &r.Lo)
		case foldEq(key, "hi"):
			return decodeArray(d, &r.Hi)
		}
		return d.skip()
	})
}

func (d *decoder) halfspace(h *halfspaceBody) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	return d.object(func(key []byte) error {
		switch {
		case foldEq(key, "coef"):
			return decodeArray(d, &h.Coef)
		case foldEq(key, "offset"):
			return d.float(&h.Offset)
		}
		return d.skip()
	})
}

// decodeArray decodes a JSON array into *s in place, the way encoding/json
// does: element i decodes over whatever the backing array holds at i (the
// slice grows only at its capacity, keeping every element, and a grown tail
// is zero), the slice is cut to the elements read, [] replaces it with a new
// empty slice and null with nil.
func decodeArray[T any](d *decoder, s *[]T) error {
	if d.peek() == 'n' {
		*s = nil
		return d.literal("null")
	}
	v, i := *s, 0
	err := d.list('[', ']', func() error {
		if i == len(v) {
			if i == cap(v) {
				v = slices.Grow(v, max(i, 4))
			}
			v = v[:i+1]
		}
		i++
		return d.elem(&v[i-1])
	})
	if err != nil {
		return err
	}
	if i == 0 {
		*s = []T{}
	} else {
		*s = v[:i]
	}
	return nil
}

// elem decodes one array element by its type. A type switch rather than a
// function argument keeps every call static, so the decoder stays on the
// caller's stack.
func (d *decoder) elem(p any) error {
	switch p := p.(type) {
	case *float64:
		return d.float(p)
	case *int:
		return d.int(p)
	case *[]float64:
		return decodeArray(d, p)
	case *halfspaceBody:
		return d.halfspace(p)
	}
	panic(fmt.Sprintf("server: no JSON decoder for %T", p))
}

// object decodes a JSON object, handing each member's unescaped key to
// member, which consumes the value.
func (d *decoder) object(member func(key []byte) error) error {
	return d.list('{', '}', func() error {
		if d.peek() != '"' {
			return d.fail("expected a string object key")
		}
		key, err := d.key()
		if err != nil {
			return err
		}
		d.ws()
		if d.peek() != ':' {
			return d.fail("expected ':' after object key")
		}
		d.pos++
		d.ws()
		return member(key)
	})
}

// list consumes an array or object delimited by open and close, calling
// item at each element or member, and holds nesting to maxDepth.
func (d *decoder) list(open, close byte, item func() error) error {
	if d.peek() != open {
		return d.fail("expected " + string(open))
	}
	if d.depth == maxDepth {
		return d.fail("exceeded max nesting depth")
	}
	d.depth++
	d.pos++
	d.ws()
	if d.peek() == close {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if err := item(); err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.pos++
			d.ws()
		case close:
			d.pos++
			d.depth--
			return nil
		default:
			return d.fail("expected ',' or " + string(close))
		}
	}
}

// int decodes a number into an int: integral literals only, in range; null
// leaves it as it is.
func (d *decoder) int(p *int) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(bytesString(lit), 10, 64)
	if err != nil {
		return d.fail("number " + string(lit) + " is not an int")
	}
	*p = int(n)
	return nil
}

// float decodes a number into a float64 (out of range is an error); null
// leaves it as it is.
func (d *decoder) float(p *float64) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(bytesString(lit), 64)
	if err != nil {
		return d.fail("number " + string(lit) + " is not a float64")
	}
	*p = f
	return nil
}

// bytesString views b as a string for a strconv call that does not keep it.
func bytesString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// number consumes a literal of the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and returns its bytes.
func (d *decoder) number() ([]byte, error) {
	start := d.pos
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case c >= '1' && c <= '9':
		d.digits()
	default:
		return nil, d.fail("expected a number")
	}
	if d.peek() == '.' {
		d.pos++
		if !d.digits() {
			return nil, d.fail("expected a digit after the decimal point")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !d.digits() {
			return nil, d.fail("expected a digit in the exponent")
		}
	}
	return d.b[start:d.pos], nil
}

// digits consumes a run of decimal digits and reports whether there was one.
func (d *decoder) digits() bool {
	start := d.pos
	for d.pos < len(d.b) && d.b[d.pos] >= '0' && d.b[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// skip consumes and validates one value of any type.
func (d *decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		return d.list('[', ']', d.skip)
	case c == '"':
		_, _, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || c >= '0' && c <= '9':
		_, err := d.number()
		return err
	}
	return d.fail("expected a JSON value")
}

// str consumes a string literal and returns its raw contents and whether
// they hold an escape. Control bytes are invalid; any other byte, valid
// UTF-8 or not, is accepted as encoding/json's scanner does.
func (d *decoder) str() (raw []byte, escaped bool, err error) {
	d.pos++ // opening quote
	start := d.pos
	for d.pos < len(d.b) {
		switch c := d.b[d.pos]; {
		case c == '"':
			raw = d.b[start:d.pos]
			d.pos++
			return raw, escaped, nil
		case c == '\\':
			escaped = true
			d.pos++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				d.pos++
				for i := 0; i < 4; i++ {
					if unhex(d.peek()) < 0 {
						return nil, false, d.fail("invalid \\u escape")
					}
					d.pos++
				}
			default:
				return nil, false, d.fail("invalid escape in string")
			}
		case c < 0x20:
			return nil, false, d.fail("control character in string")
		default:
			d.pos++
		}
	}
	return nil, false, d.fail("unterminated string")
}

// key consumes an object key and returns it unescaped (invalid UTF-8 and
// lone surrogates matter only in that they match no field name).
func (d *decoder) key() ([]byte, error) {
	raw, escaped, err := d.str()
	if err != nil || !escaped {
		return raw, err
	}
	out := d.keyBuf[:0]
	for i := 0; i < len(raw); {
		c := raw[i]
		if c != '\\' {
			out = append(out, c)
			i++
			continue
		}
		switch raw[i+1] {
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r := getu4(raw[i:])
			i += 6
			if utf16.IsSurrogate(r) {
				if r2 := getu4(raw[i:]); r2 >= 0 {
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						out = utf8.AppendRune(out, dec)
						i += 6
						continue
					}
				}
				r = utf8.RuneError
			}
			out = utf8.AppendRune(out, r)
			continue
		default: // '"', '\\', '/'
			out = append(out, raw[i+1])
		}
		i += 2
	}
	d.keyBuf = out
	return out, nil
}

// getu4 decodes a \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		r = r<<4 | rune(unhex(c))
	}
	return r
}

func unhex(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c - 'a' + 10)
	case c >= 'A' && c <= 'F':
		return int(c - 'A' + 10)
	}
	return -1
}

// foldEq reports whether key matches the field name as encoding/json
// matches since Go 1.21: by bytes.EqualFold, so the Kelvin sign matches k
// and long s matches s.
func foldEq(key []byte, name string) bool { return bytes.EqualFold(key, []byte(name)) }

// literal consumes the keyword lit.
func (d *decoder) literal(lit string) error {
	if len(d.b)-d.pos < len(lit) || string(d.b[d.pos:d.pos+len(lit)]) != lit {
		return d.fail("invalid literal, expected " + lit)
	}
	d.pos += len(lit)
	return nil
}

// peek returns the next byte, or 0 at the end of the body (0 is never valid
// where peek's result is tested).
func (d *decoder) peek() byte {
	if d.pos < len(d.b) {
		return d.b[d.pos]
	}
	return 0
}

func (d *decoder) ws() {
	for d.pos < len(d.b) {
		switch d.b[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

func (d *decoder) fail(msg string) error {
	if d.pos >= len(d.b) {
		return errors.New(msg + ": unexpected end of JSON input")
	}
	return fmt.Errorf("%s at offset %d", msg, d.pos)
}

// ---- Encoding ----

// enc appends one JSON answer, byte for byte what encoding/json writes for
// the same value: map keys in sorted order, statsPayload's field order and
// omitempty, null for a nil slice. A non-finite float marks it bad, since
// encoding/json refuses those.
type enc struct {
	b   []byte
	bad bool
}

// respond writes a hot-route answer: Content-Type, then the body and its
// trailing newline in one Write. A bad answer writes no body, which is what
// writeJSON did when encoding/json refused the value.
func respond(w http.ResponseWriter, fill func(*enc)) {
	e := getEnc()
	defer putEnc(e)
	fill(e)
	w.Header().Set("Content-Type", "application/json")
	if !e.bad {
		e.b = append(e.b, '\n')
		_, _ = w.Write(e.b) // a failed write means the client went away
	}
}

// result appends one /utk1 or /utk2 answer for the named dataset. Everything
// after the cache_hit value depends only on the cached entry (an engine
// serves one dataset, and a key one variant), so a hit copies those bytes
// from the entry's memo; the first hit encodes them and fills the memo,
// unless the encoder refused a non-finite value. Computed and shared answers
// (not hits) and derived ones (no memo) encode and fill nothing, so an entry
// never hit costs no bytes.
func (e *enc) result(res *engine.Result, v engine.Variant, name string) {
	e.b = append(e.b, `{"cache_hit":`...)
	e.b = strconv.AppendBool(e.b, res.CacheHit)
	if !res.CacheHit || res.Memo == nil {
		e.answer(res, v, name)
		return
	}
	if b := res.Memo.Load(); b != nil {
		e.b = append(e.b, b...)
		return
	}
	start := len(e.b)
	e.answer(res, v, name)
	if !e.bad {
		res.Memo.Store(slices.Clone(e.b[start:]))
	}
}

// answer appends the members after cache_hit, reading the engine's Result
// where it lies: the UTK1 ids, or per UTK2 cell only its top-k set and
// interior point. An empty id list or point is written as null, so the bytes
// do not depend on whether the engine left it nil or empty.
func (e *enc) answer(res *engine.Result, v engine.Variant, name string) {
	if v == engine.UTK2 {
		e.b = append(e.b, `,"cells":[`...)
		for i := range res.Cells {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, `{"top_k":`...)
			e.ints(orNil(res.Cells[i].TopK))
			e.b = append(e.b, `,"interior":`...)
			e.floats(orNil(res.Cells[i].Interior))
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"dataset":`...)
	e.str(name)
	e.b = append(e.b, `,"derived":`...)
	e.b = strconv.AppendBool(e.b, res.Derived)
	if v == engine.UTK1 {
		e.b = append(e.b, `,"records":`...)
		e.ints(orNil(res.IDs))
	}
	e.stats(&res.Stats)
	e.b = append(e.b, '}')
}

// orNil maps an empty slice to nil, which the writer writes as null.
func orNil[T any](v []T) []T {
	if len(v) == 0 {
		return nil
	}
	return v
}

// update appends an /update answer; inserted_ids are the batch's ids after
// its deletes.
func (e *enc) update(name string, deleted []int, res *engine.UpdateResult) {
	e.b = append(e.b, `{"dataset":`...)
	e.str(name)
	e.b = append(e.b, `,"deleted":`...)
	e.ints(deleted)
	e.b = append(e.b, `,"epoch":`...)
	e.b = strconv.AppendUint(e.b, res.Epoch, 10)
	e.b = append(e.b, `,"inserted_ids":`...)
	e.ints(res.IDs[len(deleted):])
	e.b = append(e.b, `,"live":`...)
	e.b = strconv.AppendInt(e.b, int64(res.Live), 10)
	e.b = append(e.b, `,"shadow":`...)
	e.b = strconv.AppendInt(e.b, int64(res.ShadowSize), 10)
	e.b = append(e.b, `,"superset":`...)
	e.b = strconv.AppendInt(e.b, int64(res.SupersetSize), 10)
	e.b = append(e.b, '}')
}

// stats appends the ,"stats":{...} member in statsPayload's field order.
func (e *enc) stats(st *core.Stats) {
	e.b = append(e.b, `,"stats":{"candidates":`...)
	e.b = strconv.AppendInt(e.b, int64(st.Candidates), 10)
	e.b = append(e.b, `,"filter_ms":`...)
	e.float(float64(st.FilterDuration.Microseconds()) / 1000)
	e.b = append(e.b, `,"refine_ms":`...)
	e.float(float64(st.RefineDuration.Microseconds()) / 1000)
	if st.Partitions != 0 {
		e.b = append(e.b, `,"partitions":`...)
		e.b = strconv.AppendInt(e.b, int64(st.Partitions), 10)
	}
	if st.UniqueTopKSets != 0 {
		e.b = append(e.b, `,"unique_top_k_sets":`...)
		e.b = strconv.AppendInt(e.b, int64(st.UniqueTopKSets), 10)
	}
	e.b = append(e.b, '}')
}

func (e *enc) ints(v []int) {
	if v == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, x := range v {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = strconv.AppendInt(e.b, int64(x), 10)
	}
	e.b = append(e.b, ']')
}

func (e *enc) floats(v []float64) {
	if v == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, x := range v {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.float(x)
	}
	e.b = append(e.b, ']')
}

// float follows encoding/json: the shortest 'f' form, or 'e' when
// |f| < 1e-6 or ≥ 1e21, with a one-digit negative exponent unpadded.
func (e *enc) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		n := len(e.b)
		if n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// str appends s quoted. Dataset names (registry.ValidateName admits only
// [A-Za-z0-9._-]) and most messages need no escaping and are appended
// as they are; anything else goes through json.Marshal, so HTML escaping,
// U+2028/U+2029 and invalid UTF-8 come out as encoding/json writes them.
func (e *enc) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}
