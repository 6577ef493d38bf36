package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// maxIngestBytes bounds one ingest request body, and the CSV body of a
// detect request. It admits a full
// maxBatchColumns batch of 100-sensor columns written with 17 significant
// digits (about 25 bytes a reading, 25 MB) and the 2.4 MB warm-up batch of
// an n=1000 stream thirteen times over; a longer body is answered 413
// body_too_large.
const maxIngestBytes = 32 << 20

// ErrBatchTooLarge reports an ingest body holding more than
// maxBatchColumns columns.
var ErrBatchTooLarge = fmt.Errorf("batch exceeds %d columns", maxBatchColumns)

// A ColumnError is the column at which DecodeColumns stopped.
type ColumnError struct {
	// Column is the 0-based index of the refused column in the body.
	Column int
	// Sensor is the index of the column's first null reading, or -1 when
	// the column failed to decode.
	Sensor int
	// Err is the decode or read error; nil for a null reading.
	Err error
}

func (e *ColumnError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("column %d: null reading for sensor %d", e.Column, e.Sensor)
	}
	return fmt.Sprintf("bad JSON at column %d: %v", e.Column, e.Err)
}

func (e *ColumnError) Unwrap() error { return e.Err }

// DecodeColumns reads an ingest body: one {"readings":[…]} object per
// column, separated by any JSON whitespace (or none). It accepts exactly
// what an encoding/json loop decoding IngestRequest values accepts, except
// that a null reading is refused instead of read as 0: a collector's
// missing sample must not enter the correlation window as a real 0.0.
//
// Canonical objects are scanned in one pass over a refillable buffer, each
// number checked against the JSON grammar and parsed by strconv.ParseFloat
// straight into its column; the first column's length sizes the rest. From
// the first object the scanner does not take (another, escaped, case-folded
// or repeated key, a null, a number ParseFloat rejects, a value that is not
// an object, a syntax error) the rest of the body goes to encoding/json, so
// such input keeps its errors and messages. Either way the decoder holds
// only the current object besides the decoded columns.
//
// Errors are a *ColumnError (which wraps the read error, e.g. an
// *http.MaxBytesError) or ErrBatchTooLarge. A body of whitespace only
// yields no columns and no error.
func DecodeColumns(r io.Reader) ([][]float64, error) {
	s := scanners.Get().(*columnScanner)
	*s = columnScanner{r: r, buf: s.buf[:0], first: s.first, arity: -1}
	cols, all, err := s.scan()
	if !all {
		cols, err = s.fallback(cols)
	}
	s.r = nil
	if cap(s.buf) <= maxPooledBuffer {
		scanners.Put(s)
	}
	return cols, err
}

// scanners recycles scanners, buffer and first-column scratch included,
// across requests, so a one-column body allocates its column and little
// else. A scanner whose buffer grew past maxPooledBuffer for one huge
// object is left to the collector.
var scanners = sync.Pool{New: func() any {
	return &columnScanner{buf: make([]byte, 0, 8<<10)}
}}

const maxPooledBuffer = 64 << 10

// columnScanner is DecodeColumns' state: buf[mark:] is the unconsumed
// input from the start of the current object, buf[pos:] what is left to
// scan.
type columnScanner struct {
	r         io.Reader
	buf       []byte
	pos, mark int
	eof       bool
	err       error // a read error other than io.EOF
	// arity is the first column's length, -1 before it; first holds that
	// column while its length is unknown.
	arity int
	first []float64
}

// scan decodes objects until the input ends (all) or until one the
// scanner does not take, whose start it leaves at mark.
func (s *columnScanner) scan() (cols [][]float64, all bool, err error) {
	for {
		c, ok := s.skipSpace(true)
		s.mark = s.pos
		if !ok && s.err == nil {
			return cols, true, nil
		}
		if !ok || c != '{' {
			return cols, false, nil
		}
		col, ok := s.object()
		if !ok {
			return cols, false, nil
		}
		if len(cols) >= maxBatchColumns {
			return cols, true, ErrBatchTooLarge
		}
		cols = append(cols, col)
	}
}

// fill reads more input, moving buf[mark:] to the front first and
// doubling the buffer when the current object fills it. It reports
// whether new bytes arrived.
func (s *columnScanner) fill() bool {
	if s.eof || s.err != nil {
		return false
	}
	if s.mark > 0 {
		n := copy(s.buf, s.buf[s.mark:])
		s.buf, s.pos, s.mark = s.buf[:n], s.pos-s.mark, 0
	}
	if len(s.buf) == cap(s.buf) {
		s.buf = append(s.buf, make([]byte, cap(s.buf))...)[:len(s.buf)]
	}
	for empty := 0; empty < 100; empty++ {
		n, err := s.r.Read(s.buf[len(s.buf):cap(s.buf)])
		s.buf = s.buf[:len(s.buf)+n]
		if err == io.EOF {
			s.eof = true
		} else if err != nil {
			s.err = err
		}
		if n > 0 {
			return true
		}
		if err != nil {
			return false
		}
	}
	s.err = io.ErrNoProgress
	return false
}

// skipSpace advances past JSON whitespace and returns the next byte, or
// false at the end of the input. Between objects (drop) the skipped
// whitespace is not kept across a refill.
func (s *columnScanner) skipSpace(drop bool) (byte, bool) {
	for {
		for ; s.pos < len(s.buf); s.pos++ {
			switch c := s.buf[s.pos]; c {
			case ' ', '\t', '\n', '\r':
			default:
				return c, true
			}
		}
		if drop {
			s.mark = s.pos
		}
		if !s.fill() {
			return 0, false
		}
	}
}

// token skips whitespace and consumes lit if the input continues with it.
func (s *columnScanner) token(lit string) bool {
	if _, ok := s.skipSpace(false); !ok {
		return false
	}
	for len(s.buf)-s.pos < len(lit) {
		if !s.fill() {
			return false
		}
	}
	if string(s.buf[s.pos:s.pos+len(lit)]) != lit {
		return false
	}
	s.pos += len(lit)
	return true
}

// object scans one canonical {"readings":[…]} object, its '{' next in the
// input, into a new column. It returns false for anything else.
func (s *columnScanner) object() ([]float64, bool) {
	s.pos++
	if !s.token(`"readings"`) || !s.token(":") || !s.token("[") {
		return nil, false
	}
	col := s.first[:0]
	if s.arity >= 0 {
		col = make([]float64, 0, s.arity)
	}
	if c, ok := s.skipSpace(false); ok && c == ']' {
		s.pos++
	} else {
		for {
			v, ok := s.number()
			if !ok {
				return nil, false
			}
			col = append(col, v)
			if c, ok = s.skipSpace(false); !ok || (c != ',' && c != ']') {
				return nil, false
			}
			s.pos++
			if c == ']' {
				break
			}
		}
	}
	if !s.token("}") {
		return nil, false
	}
	if s.arity < 0 {
		s.first, s.arity = col, len(col)
		col = append(make([]float64, 0, len(col)), col...)
	}
	return col, true
}

// number skips whitespace and parses the JSON number that follows. It
// returns false when no complete number ParseFloat takes follows.
func (s *columnScanner) number() (float64, bool) {
	if _, ok := s.skipSpace(false); !ok {
		return 0, false
	}
	for {
		n, more := numberLen(s.buf[s.pos:])
		if n < 0 {
			return 0, false
		}
		if more {
			if !s.fill() {
				return 0, false
			}
			continue
		}
		v, err := strconv.ParseFloat(string(s.buf[s.pos:s.pos+n]), 64)
		if err != nil {
			return 0, false
		}
		s.pos += n
		return v, true
	}
}

// numberLen returns the length of the JSON number b starts with, or -1 if
// b does not start with one. more reports that the number reaches the end
// of b and may go on past it.
func numberLen(b []byte) (n int, more bool) {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i == len(b) {
		return i, true
	}
	switch {
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		for i++; i < len(b) && isDigit(b[i]); i++ {
		}
	default:
		return -1, false
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) {
			return i, true
		}
		if !isDigit(b[i]) {
			return -1, false
		}
		for i++; i < len(b) && isDigit(b[i]); i++ {
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) {
			return i, true
		}
		if !isDigit(b[i]) {
			return -1, false
		}
		for i++; i < len(b) && isDigit(b[i]); i++ {
		}
	}
	return i, i == len(b)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// fallback decodes the rest of the input, from the start of the object
// the scanner refused, with encoding/json. A read error the scanner met
// reaches encoding/json where it would have met it.
func (s *columnScanner) fallback(cols [][]float64) ([][]float64, error) {
	rest := io.Reader(bytes.NewReader(s.buf[s.mark:]))
	switch {
	case s.err != nil:
		rest = io.MultiReader(rest, errReader{s.err})
	case !s.eof:
		rest = io.MultiReader(rest, s.r)
	}
	return decodeJSON(rest, cols)
}

// errReader fails every Read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decodeJSON appends to cols the columns of an ingest body decoded with
// encoding/json, refusing null readings.
func decodeJSON(r io.Reader, cols [][]float64) ([][]float64, error) {
	dec := json.NewDecoder(r)
	for {
		var raw json.RawMessage
		err := dec.Decode(&raw)
		if errors.Is(err, io.EOF) {
			return cols, nil
		}
		var req IngestRequest
		if err == nil {
			err = json.Unmarshal(raw, &req)
		}
		if err != nil {
			return cols, &ColumnError{Column: len(cols), Sensor: -1, Err: err}
		}
		if i := nullReading(raw); i >= 0 {
			return cols, &ColumnError{Column: len(cols), Sensor: i}
		}
		if len(cols) >= maxBatchColumns {
			return cols, ErrBatchTooLarge
		}
		cols = append(cols, req.Readings)
	}
}

// nullReading returns the index of the first null reading of a decodable
// ingest object, or -1. encoding/json leaves a null float untouched, so
// the readings are decoded again as pointers, where null reads as nil.
func nullReading(raw []byte) int {
	if !bytes.Contains(raw, []byte("null")) {
		return -1
	}
	var probe struct {
		Readings []*float64 `json:"readings"`
	}
	if json.Unmarshal(raw, &probe) != nil {
		return -1
	}
	for i, p := range probe.Readings {
		if p == nil {
			return i
		}
	}
	return -1
}
