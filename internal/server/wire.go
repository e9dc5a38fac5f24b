package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/engine"
)

// The hot routes' wire codec. Answers encode without encoding/json's
// reflection. Request bodies of the three documented shapes (a box or
// halfspace query, an update) are read by a strict scanner; every other body
// is decoded by encoding/json, the reference the scanner is held to. The
// struct tags on the request types still document the wire format, and the
// tests hold both directions to encoding/json byte for byte and value for
// value.

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

// decodeQuery reads a /utk1 or /utk2 body into the zero q, and decodeUpdate
// an /update body into the zero req: the scanner reads the documented
// shapes, and every body it refuses is encoding/json's to decode.
func decodeQuery(b []byte, q *queryRequest) error {
	if scanQuery(b, q) {
		return nil
	}
	return decodeJSON(b, q)
}

func decodeUpdate(b []byte, req *updateRequest) error {
	if scanUpdate(b, req) {
		return nil
	}
	return decodeJSON(b, req)
}

func scanQuery(b []byte, q *queryRequest) bool {
	s := scanner{b: b}
	return s.object(queryMembers, func(i int) bool {
		switch i {
		case 0:
			return s.int(&q.K)
		case 1:
			r := new(regionBody)
			q.Region = r
			return s.object(regionMembers, func(i int) bool {
				if i == 0 {
					return s.floats(&r.Lo)
				}
				return s.floats(&r.Hi)
			})
		}
		return array(&s, &q.Halfspaces, s.halfspace)
	})
}

func scanUpdate(b []byte, req *updateRequest) bool {
	s := scanner{b: b}
	return s.object(updateMembers, func(i int) bool {
		if i == 0 {
			return array(&s, &req.Delete, s.int)
		}
		return array(&s, &req.Insert, s.floats)
	})
}

// decodeJSON decodes a body the scanner refused with json.Decoder.Decode.
// It decodes into a fresh value, so p does not escape on the scanned path,
// and a body that decodes keeps nothing the scanner half-filled.
func decodeJSON[T any](b []byte, p *T) error {
	var v T
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
		return err
	}
	*p = v
	return nil
}

// Member names in the order the scanner's member functions number them.
var (
	queryMembers     = []string{"k", "region", "halfspaces"}
	regionMembers    = []string{"lo", "hi"}
	halfspaceMembers = []string{"coef", "offset"}
	updateMembers    = []string{"delete", "insert"}
)

// scanner reads exactly the documented request shapes, and yields what
// json.Decoder.Decode yields for them: JSON whitespace between tokens; one
// object of named members, each at most once and spelled exactly; number
// arrays, halfspace objects and a region object as values; numbers of the
// JSON grammar that strconv parses into float64 or int; [] as an empty
// non-nil slice; every byte after the closing brace ignored. It refuses the
// rest (escapes, other spellings, repeated members, null, strings, unknown
// members, a number out of range) by reporting false.
type scanner struct {
	b   []byte
	pos int
}

// object scans an object whose members are named from names, each at most
// once, handing member the name's index to scan the value.
func (s *scanner) object(names []string, member func(int) bool) bool {
	var seen uint
	return s.list('{', '}', func() bool {
		i := s.key(names)
		if i < 0 || seen&(1<<i) != 0 || !s.eat(':') {
			return false
		}
		seen |= 1 << i
		return member(i)
	})
}

// array scans an array into *p, element by element: [] makes an empty
// slice, not nil, as encoding/json does.
func array[T any](s *scanner, p *[]T, elem func(*T) bool) bool {
	v := make([]T, 0, 4)
	ok := s.list('[', ']', func() bool {
		var zero T
		v = append(v, zero)
		return elem(&v[len(v)-1])
	})
	*p = v
	return ok
}

// list scans an array or object from open to close, calling item at each
// element or member.
func (s *scanner) list(open, close byte, item func() bool) bool {
	if !s.eat(open) {
		return false
	}
	if s.eat(close) {
		return true
	}
	for item() {
		if s.eat(close) {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
	return false
}

func (s *scanner) halfspace(h *halfspaceBody) bool {
	return s.object(halfspaceMembers, func(i int) bool {
		if i == 0 {
			return s.floats(&h.Coef)
		}
		return s.float(&h.Offset)
	})
}

func (s *scanner) floats(p *[]float64) bool { return array(s, p, s.float) }

// key scans a member name and returns its index in names, or -1. Names are
// matched byte for byte, so an escaped or case-folded spelling is refused.
func (s *scanner) key(names []string) int {
	if !s.eat('"') {
		return -1
	}
	n := bytes.IndexByte(s.b[s.pos:], '"')
	if n < 0 {
		return -1
	}
	key := s.b[s.pos : s.pos+n]
	s.pos += n + 1
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	return -1
}

// int parses a number as encoding/json does into an int: strconv.ParseInt at
// the int's own size, so a value that does not fit is refused, not wrapped.
func (s *scanner) int(p *int) bool {
	n, err := strconv.ParseInt(string(s.number()), 10, strconv.IntSize)
	*p = int(n)
	return err == nil
}

func (s *scanner) float(p *float64) bool {
	f, err := strconv.ParseFloat(string(s.number()), 64)
	*p = f
	return err == nil
}

// number consumes a literal of the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and returns its bytes, or
// nil (which strconv refuses) when the grammar is broken.
func (s *scanner) number() []byte {
	s.ws()
	start := s.pos
	if s.peek() == '-' {
		s.pos++
	}
	if s.peek() == '0' {
		s.pos++
	} else if !s.digits() {
		return nil
	}
	if s.peek() == '.' {
		s.pos++
		if !s.digits() {
			return nil
		}
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.pos++
		if c := s.peek(); c == '+' || c == '-' {
			s.pos++
		}
		if !s.digits() {
			return nil
		}
	}
	return s.b[start:s.pos]
}

// digits consumes a run of decimal digits and reports whether there was one.
func (s *scanner) digits() bool {
	start := s.pos
	for s.pos < len(s.b) && s.b[s.pos] >= '0' && s.b[s.pos] <= '9' {
		s.pos++
	}
	return s.pos > start
}

// eat skips whitespace and consumes c if it comes next.
func (s *scanner) eat(c byte) bool {
	s.ws()
	if s.peek() != c {
		return false
	}
	s.pos++
	return true
}

// peek returns the next byte, or 0 at the end of the body (0 is never a
// byte the scanner looks for).
func (s *scanner) peek() byte {
	if s.pos < len(s.b) {
		return s.b[s.pos]
	}
	return 0
}

func (s *scanner) ws() {
	for s.pos < len(s.b) {
		switch s.b[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
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
