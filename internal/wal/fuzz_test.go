package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzValidPrefix walks arbitrary bytes as a segment, the way Open scans a
// segment left by a crash. It must never panic; the prefix it reports must
// fit in the input and re-walk to the same (length, last sequence, count);
// and bytes appended after the input must never shorten it. Read as a head
// file, the input must decode only when it is one whole record.
func FuzzValidPrefix(f *testing.F) {
	dir := f.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if err := l.Append(uint64(10*i), time.Unix(0, int64(i)), []byte(fmt.Sprintf("record-%d", i))); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg, []byte(nil))
	f.Add(seg[:len(seg)-3], seg[len(seg)-3:]) // torn last frame, then mended
	f.Add(seg[:headerSize+metaSize], []byte{0})
	corrupt := bytes.Clone(seg)
	corrupt[headerSize+metaSize] ^= 0xff // first record's checksum fails
	f.Add(corrupt, []byte(nil))
	huge := bytes.Clone(seg)
	binary.LittleEndian.PutUint32(huge, maxRecordBytes+1)
	f.Add(huge, []byte(nil))
	f.Add([]byte{}, seg)
	f.Fuzz(func(t *testing.T, raw, tail []byte) {
		n, lastSeq, count := validPrefix(raw)
		if n < 0 || n > int64(len(raw)) {
			t.Fatalf("prefix %d outside [0, %d]", n, len(raw))
		}
		if count == 0 && (n != 0 || lastSeq != 0) {
			t.Fatalf("no records, but prefix %d and last sequence %d", n, lastSeq)
		}
		if n2, lastSeq2, count2 := validPrefix(raw[:n]); n2 != n || lastSeq2 != lastSeq || count2 != count {
			t.Fatalf("re-walking the prefix gave (%d, %d, %d), want (%d, %d, %d)", n2, lastSeq2, count2, n, lastSeq, count)
		}
		if rec, ok := parseHead(raw); ok != (count == 1 && n == int64(len(raw))) {
			t.Fatalf("parseHead ok = %v for %d records in a %d-byte prefix of %d bytes", ok, count, n, len(raw))
		} else if ok && (rec.Seq != lastSeq || len(rec.Data) != len(raw)-headerSize-metaSize) {
			t.Fatalf("parseHead = seq %d and %d data bytes, want seq %d and %d", rec.Seq, len(rec.Data), lastSeq, len(raw)-headerSize-metaSize)
		}
		longer := append(raw[:len(raw):len(raw)], tail...)
		if n3, _, count3 := validPrefix(longer); n3 < n || count3 < count {
			t.Fatalf("appending %d bytes shortened the prefix from (%d, %d records) to (%d, %d records)", len(tail), n, count, n3, count3)
		}
	})
}
