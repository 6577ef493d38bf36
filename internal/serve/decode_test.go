package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// legacyColumns is the encoding/json loop handleIngest ran before
// DecodeColumns, with its error formatted as the handler formatted it. It
// reads a null reading as 0.
func legacyColumns(r io.Reader) ([][]float64, error) {
	dec := json.NewDecoder(r)
	var cols [][]float64
	for {
		var req IngestRequest
		err := dec.Decode(&req)
		if errors.Is(err, io.EOF) {
			return cols, nil
		}
		if err != nil {
			return cols, fmt.Errorf("bad JSON at column %d: %v", len(cols), err)
		}
		if len(cols) >= maxBatchColumns {
			return cols, ErrBatchTooLarge
		}
		cols = append(cols, req.Readings)
	}
}

// oracleColumns is the same loop with the null rule: readings decode as
// pointers, and a nil one refuses the body.
func oracleColumns(r io.Reader) ([][]float64, error) {
	dec := json.NewDecoder(r)
	var cols [][]float64
	for {
		var req struct {
			Readings []*float64 `json:"readings"`
		}
		err := dec.Decode(&req)
		if errors.Is(err, io.EOF) {
			return cols, nil
		}
		if err != nil {
			return cols, err
		}
		col := make([]float64, len(req.Readings))
		for i, p := range req.Readings {
			if p == nil {
				return cols, fmt.Errorf("column %d: null reading for sensor %d", len(cols), i)
			}
			col[i] = *p
		}
		if len(cols) >= maxBatchColumns {
			return cols, ErrBatchTooLarge
		}
		cols = append(cols, col)
	}
}

// sameColumns compares two decodes bit for bit.
func sameColumns(a, b [][]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d columns against %d", len(a), len(b))
	}
	for c := range a {
		if len(a[c]) != len(b[c]) {
			return fmt.Errorf("column %d: %d readings against %d", c, len(a[c]), len(b[c]))
		}
		for i := range a[c] {
			if math.Float64bits(a[c][i]) != math.Float64bits(b[c][i]) {
				return fmt.Errorf("column %d sensor %d: %v against %v", c, i, a[c][i], b[c][i])
			}
		}
	}
	return nil
}

// wideObject is one column of n readings, longer than the decoder's
// initial buffer when n is in the thousands.
func wideObject(n int) string {
	var b strings.Builder
	b.WriteString(`{"readings":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d.%03d", i, i%1000)
	}
	b.WriteString("]}\n")
	return b.String()
}

// checkDecode compares DecodeColumns with the encoding/json loop with the
// null rule: read whole or in small pieces, both accept with bit-identical
// columns or both refuse, and a body refused as bad JSON carries the
// message the handler gave before DecodeColumns.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := oracleColumns(bytes.NewReader(body))
	// Read a byte at a time, every token crosses a refill; on large bodies
	// half-buffer reads keep the run short.
	split := iotest.OneByteReader(bytes.NewReader(body))
	if len(body) > 64<<10 {
		split = iotest.HalfReader(bytes.NewReader(body))
	}
	for name, r := range map[string]io.Reader{
		"whole": bytes.NewReader(body),
		"split": split,
	} {
		got, err := DecodeColumns(r)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: DecodeColumns error %v, encoding/json error %v, body %.200q", name, err, wantErr, body)
		}
		if err != nil {
			var ce *ColumnError
			if errors.As(err, &ce) && ce.Err != nil {
				_, legacy := legacyColumns(bytes.NewReader(body))
				if legacy == nil || legacy.Error() != err.Error() {
					t.Fatalf("%s: message %q, before DecodeColumns %v, body %.200q", name, err, legacy, body)
				}
			}
			continue
		}
		if d := sameColumns(got, want); d != nil {
			t.Fatalf("%s: %v, body %.200q", name, d, body)
		}
	}
}

// FuzzDecodeColumns runs checkDecode on arbitrary bodies.
func FuzzDecodeColumns(f *testing.F) {
	for _, seed := range []string{
		``,
		" \t\r\n ",
		`{"readings":[1,2,3,4]}`,
		" {\t\"readings\" \n:\r[ 1 ,\t2 , 3\n,4 ] }\n\n{\"readings\":[5,6,7,8]}  ",
		`{"readings":[-0,0,-0.0,0e0]}`,
		`{"readings":[1e3,1E-3,1.5e+2,-2.5E-0,6.02214076e23]}`,
		`{"readings":[4.9e-324,2.2250738585072014e-308,1e-400,1.7976931348623157e308]}`,
		`{"readings":[1e400]}`,
		`{"readings":[-1e400,2]}`,
		`{"readings":[1,null,3,4]}`,
		`{"readings":[null]}`,
		`{"readings":null}`,
		`null`,
		`{"readings":[1,2],"readings":[null]}`,
		`{"readings":[1,2],"readings":[3,4]}`,
		`{"READINGS":[1,2,3,4]}`,
		`{"Readings":[1,2,3,4]}`,
		`{"\u0072eadings":[1,2,3,4]}`,
		`{"readings":[1,2,3,4],"sensor":"x"}`,
		`{"sensor":"x","readings":[1,2,3,4]}`,
		`{}`,
		`{"readings":[]}`,
		`{"readings":[1,2]}{"readings":[3,4]}{"readings":[5,6]}`,
		`{"readings":[1,2]}[1,2]`,
		`{"readings":[1,2]}1`,
		`{"readings":[1,2]} trailing`,
		`{"readings":[01]}`,
		`{"readings":[1.]}`,
		`{"readings":[.5]}`,
		`{"readings":[+1]}`,
		`{"readings":[1e]}`,
		`{"readings":[-]}`,
		`{"readings":[1,]}`,
		`{"readings":[,1]}`,
		`{"readings":[1 2]}`,
		`{"readings":[NaN,2,3,4]}`,
		`{"readings":["1",2]}`,
		`{"readings":[true]}`,
		`{"readings":[[1]]}`,
		`{"readings":{"a":1}}`,
		`{"readings":[1,2,3,4]`,
		`{"readings":[1,2,3,4`,
		`{"readings":[1.25e`,
		`{"readi`,
		"{\"readings\":[1,2]}\n{\"readings\":[1,2,3]}\n{\"readings\":[1]}",
		"\xef\xbb\xbf{\"readings\":[1]}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkDecode)
}

// TestDecodeColumnsLarge runs checkDecode on bodies too large to seed the
// fuzz target with (each costs the fuzzer milliseconds): objects longer
// than the decoder's first buffer, and batches at and past the column cap.
func TestDecodeColumnsLarge(t *testing.T) {
	for _, body := range []string{
		wideObject(5000) + wideObject(5000),
		strings.Repeat(`{"readings":[1]}`, maxBatchColumns),
		strings.Repeat(`{"readings":[1]}`, maxBatchColumns+1),
		strings.Repeat(`{"readings":[1]}`, maxBatchColumns) + `{"readings":[null]}`,
	} {
		checkDecode(t, []byte(body))
	}
	if _, err := DecodeColumns(strings.NewReader(strings.Repeat(`{"readings":[1]}`, maxBatchColumns+1))); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("one column over the cap: %v, want ErrBatchTooLarge", err)
	}
}

// TestScannerTakesCanonicalBodies: canonical bodies never reach the
// encoding/json fallback, whatever the read sizes and however small the
// buffer starts. The fallback would decode them right, only slowly.
func TestScannerTakesCanonicalBodies(t *testing.T) {
	for _, body := range []string{
		"",
		`{"readings":[]}`,
		" {\t\"readings\" \n:\r[ 1 ,\t2 , 3\n,4 ] }\n\n{\"readings\":[5,6,7,8]}  ",
		`{"readings":[-0,0,-0.0,0e0,1e3,1E-3,1.5e+2,-2.5E-0,6.02214076e23,1e-400]}`,
		`{"readings":[1,2]}{"readings":[3,4,5]}{"readings":[6]}`,
		wideObject(300) + wideObject(300),
		string(ingestBody(20, 32)),
	} {
		want, err := oracleColumns(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for name, r := range map[string]io.Reader{
			"whole":    strings.NewReader(body),
			"one-byte": iotest.OneByteReader(strings.NewReader(body)),
		} {
			s := columnScanner{r: r, buf: make([]byte, 0, 8), arity: -1}
			got, all, err := s.scan()
			if !all || err != nil {
				t.Fatalf("%s: scanner gave up at byte %d (%v) of %q", name, s.mark, err, body)
			}
			if d := sameColumns(got, want); d != nil {
				t.Fatalf("%s: %v, body %q", name, d, body)
			}
		}
	}
}

// ingestBody is an NDJSON batch of cols columns of n readings, written as
// a collector would: shortest round-tripping floats.
func ingestBody(cols, n int) []byte {
	rng := rand.New(rand.NewSource(1))
	var b []byte
	for c := 0; c < cols; c++ {
		b = append(b, `{"readings":[`...)
		for i := 0; i < n; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			v := math.Sin(2*math.Pi*float64(c)/25)*(1+0.2*float64(i%4)) + 0.1*rng.NormFloat64()
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, "]}\n"...)
	}
	return b
}

// BenchmarkDecodeColumns compares DecodeColumns with the encoding/json
// loop it replaced on a 400-column batch of 32 sensors (one scenario
// stream's warm-up) and a 124-column batch of 1000 sensors (the wide
// stream's).
func BenchmarkDecodeColumns(b *testing.B) {
	for _, shape := range []struct{ cols, n int }{{400, 32}, {124, 1000}} {
		body := ingestBody(shape.cols, shape.n)
		for _, dec := range []struct {
			name string
			fn   func(io.Reader) ([][]float64, error)
		}{{"json", legacyColumns}, {"scan", DecodeColumns}} {
			b.Run(fmt.Sprintf("%dx%d/%s", shape.cols, shape.n, dec.name), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(body)))
				for i := 0; i < b.N; i++ {
					cols, err := dec.fn(bytes.NewReader(body))
					if err != nil || len(cols) != shape.cols {
						b.Fatalf("%d columns, %v", len(cols), err)
					}
				}
			})
		}
	}
}
