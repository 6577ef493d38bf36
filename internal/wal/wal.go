// Package wal implements a checksummed, segmented write-ahead log. The
// manager keeps one log per stream and appends every ingested column to it
// before the column touches detector state, so a crash loses at most the
// records that never finished reaching the disk.
//
// On-disk layout: a log is a directory of fixed-name segments
// (00000001.wal, 00000002.wal, …) written strictly in order, and at most
// one head record in a file of its own (head), which describes what the
// records apply to. Each record is framed as
//
//	uint32  payload length (little endian)
//	uint32  CRC32-C of the payload
//	payload = uint64 sequence number | int64 unix-nano timestamp | data
//
// A crash can only tear the final frame of the final segment; Open detects
// the torn tail (short frame, impossible length, or checksum mismatch),
// truncates the segment back to its last whole record, and discards any
// segments after the damage, so the log always reopens into a valid prefix
// of what was appended. Appends rotate to a new segment once the current
// one exceeds the configured size, keeping truncation scans and retained
// files bounded.
//
// A log either fsyncs every append (SyncAlways) or leaves syncing to its
// owner (SyncNever), who calls Sync when the records written so far must
// become durable. Open cannot tell which records of an existing log the
// previous process synced, so the first Sync after Open covers them all.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"cad/internal/faultfs"
)

// SyncPolicy picks when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append, and the log's directory after
	// the first append to a segment file it created: no acknowledged
	// record is ever lost, at one fsync per record.
	SyncAlways SyncPolicy = iota
	// SyncNever never fsyncs on its own. The owner calls Sync to make the
	// records appended so far durable; until then a crash of the machine
	// can lose them.
	SyncNever
)

const (
	// headerSize frames every record: length + CRC32-C.
	headerSize = 8
	// metaSize prefixes every payload: sequence number + timestamp.
	metaSize = 16
	// maxRecordBytes bounds a single payload; larger length fields are
	// treated as corruption rather than allocated.
	maxRecordBytes = 1 << 26
	// DefaultSegmentBytes is the rotation threshold when none is given.
	DefaultSegmentBytes = 1 << 20

	segSuffix = ".wal"
	// headName is the head record's file.
	headName = "head"
)

// ErrClosed reports an append to a closed log.
var ErrClosed = errors.New("wal: log closed")

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one appended entry, returned in order by Replay.
type Record struct {
	// Seq is the caller-assigned, strictly increasing sequence number.
	Seq uint64
	// Time is the wall-clock instant recorded at append.
	Time time.Time
	// Data is the caller payload.
	Data []byte
}

// Options configures a log.
type Options struct {
	// FS is the filesystem seam; nil means the real OS.
	FS faultfs.FS
	// SegmentBytes rotates segments once they exceed this size
	// (≤ 0 means DefaultSegmentBytes).
	SegmentBytes int64
	// Sync picks the fsync policy (default SyncAlways).
	Sync SyncPolicy
}

// Log is a segmented append-only record log. Not safe for concurrent use;
// the manager serializes access under each stream's lock.
type Log struct {
	dir string
	fs  faultfs.FS
	opt Options

	f         faultfs.File // current segment, nil once closed
	segIdx    int          // current segment number (1-based)
	segSize   int64
	segments  []int // existing segment numbers in order, including segIdx
	lastSeq   uint64
	dirty     bool  // the current segment has unsynced appends
	unsynced  []int // rotated-out segments with unsynced appends
	newEntry  bool  // a segment or head file was created since the directory was synced
	head      bool  // the head file exists
	headDirty bool  // the head file is not synced
	// frame is the reused encode buffer, as large as the largest frame
	// appended so far.
	frame []byte
}

// segName renders the fixed-width segment file name for index i.
func segName(i int) string { return fmt.Sprintf("%08d%s", i, segSuffix) }

// segIndex parses a segment file name, reporting whether it is one.
func segIndex(name string) (int, bool) {
	base, ok := strings.CutSuffix(name, segSuffix)
	if !ok || len(base) != 8 {
		return 0, false
	}
	i, err := strconv.Atoi(base)
	if err != nil || i < 1 {
		return 0, false
	}
	return i, true
}

// Open scans dir (creating it if needed), repairs any torn tail, and
// returns a log positioned to append after the last whole record. Records
// written before the damage are preserved; the torn frame and anything
// after it are discarded.
func Open(dir string, o Options) (*Log, error) {
	if o.FS == nil {
		o.FS = faultfs.OS()
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if err := o.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	l := &Log{dir: dir, fs: o.FS, opt: o}
	if err := l.scan(); err != nil {
		return nil, err
	}
	if err := l.openSegment(); err != nil {
		return nil, err
	}
	return l, nil
}

// listSegments returns the segment numbers present in the directory, in
// order, and whether it holds a head file.
func listSegments(fsys faultfs.FS, dir string) (segs []int, head bool, err error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, false, fmt.Errorf("wal: scan %s: %w", dir, err)
	}
	for _, e := range entries {
		if i, ok := segIndex(e.Name()); ok {
			segs = append(segs, i)
		}
		head = head || e.Name() == headName
	}
	sort.Ints(segs)
	return segs, head, nil
}

// scan validates every segment in order, truncating at the first invalid
// frame and deleting any segments past it, and records where appends
// resume.
func (l *Log) scan() error {
	segs, head, err := listSegments(l.fs, l.dir)
	if err != nil {
		return err
	}
	l.head = head
	// Whatever is on disk may not be durable yet: the first Sync covers
	// the head, every segment and the directory.
	l.headDirty = l.head
	l.newEntry = true
	if len(segs) == 0 {
		l.segIdx = 1
		l.segments = []int{1}
		return nil
	}
	for i, seg := range segs {
		path := filepath.Join(l.dir, segName(seg))
		raw, err := l.fs.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: scan %s: %w", path, err)
		}
		valid, lastSeq, _ := validPrefix(raw)
		if lastSeq != 0 {
			l.lastSeq = lastSeq
		}
		if valid == int64(len(raw)) {
			l.segIdx = seg
			l.segSize = valid
			continue
		}
		// Torn or corrupt frame: keep the whole-record prefix, drop the
		// rest of this segment and every later one.
		if err := l.fs.Truncate(path, valid); err != nil {
			return fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
		for _, later := range segs[i+1:] {
			if err := l.fs.Remove(filepath.Join(l.dir, segName(later))); err != nil {
				return fmt.Errorf("wal: drop segment after torn tail: %w", err)
			}
		}
		l.segIdx = seg
		l.segSize = valid
		segs = segs[:i+1]
		break
	}
	l.segments = segs
	l.unsynced = append([]int(nil), segs[:len(segs)-1]...)
	l.dirty = l.segSize > 0
	return nil
}

// validPrefix walks raw frame by frame and returns the byte length of the
// longest prefix of whole, checksum-valid records, the last record's
// sequence number (0 when none), and the record count.
func validPrefix(raw []byte) (n int64, lastSeq uint64, count int) {
	off := 0
	for {
		if len(raw)-off < headerSize {
			return int64(off), lastSeq, count
		}
		size := binary.LittleEndian.Uint32(raw[off:])
		sum := binary.LittleEndian.Uint32(raw[off+4:])
		if size < metaSize || size > maxRecordBytes || len(raw)-off-headerSize < int(size) {
			return int64(off), lastSeq, count
		}
		payload := raw[off+headerSize : off+headerSize+int(size)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return int64(off), lastSeq, count
		}
		lastSeq = binary.LittleEndian.Uint64(payload)
		count++
		off += headerSize + int(size)
	}
}

// openSegment opens the current segment for appending.
func (l *Log) openSegment() error {
	path := filepath.Join(l.dir, segName(l.segIdx))
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment %s: %w", path, err)
	}
	l.f = f
	return nil
}

// LastSeq returns the sequence number of the last record on disk (0 when
// the log is empty).
func (l *Log) LastSeq() uint64 { return l.lastSeq }

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Append frames data under seq and t, writes it to the current segment,
// and applies the sync policy. The record is durable once Append returns
// under SyncAlways, and once Sync returns under SyncNever.
func (l *Log) Append(seq uint64, t time.Time, data []byte) error {
	return l.AppendFunc(seq, t, len(data), func(p []byte) { copy(p, data) })
}

// AppendFunc is Append for an n-byte payload that fill encodes in place,
// straight into the log's frame buffer, so the caller needs no buffer of
// its own. fill must write all of p and must not keep it.
func (l *Log) AppendFunc(seq uint64, t time.Time, n int, fill func(p []byte)) error {
	if l.f == nil {
		return ErrClosed
	}
	frame := l.encode(seq, t, n, fill)
	// One Write call per frame: a crash mid-call tears at most this record.
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.segSize += int64(len(frame))
	l.lastSeq = seq
	l.dirty = true
	if l.opt.Sync == SyncAlways {
		if err := l.Sync(); err != nil {
			return err
		}
	}
	if l.segSize >= l.opt.SegmentBytes {
		return l.rotate()
	}
	return nil
}

// encode frames an n-byte record that fill writes in place into the log's
// frame buffer and returns the frame, valid until the next encode.
func (l *Log) encode(seq uint64, t time.Time, n int, fill func(p []byte)) []byte {
	size := headerSize + metaSize + n
	if cap(l.frame) < size {
		l.frame = make([]byte, size)
	}
	frame := l.frame[:size]
	payload := frame[headerSize:]
	binary.LittleEndian.PutUint64(payload, seq)
	binary.LittleEndian.PutUint64(payload[8:], uint64(t.UnixNano()))
	fill(payload[metaSize:])
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	return frame
}

// WriteHead writes the log's head record, sequence number 0 at t: what
// the log's records apply to, written by a new log's owner before its
// first append. The head lives in a file of its own, written with one
// Write, so the segments hold only appended records. It becomes durable as
// an append does: before WriteHead returns under SyncAlways, at the next
// Sync under SyncNever. Reset discards it with every other record.
func (l *Log) WriteHead(t time.Time, data []byte) error {
	if l.f == nil {
		return ErrClosed
	}
	frame := l.encode(0, t, len(data), func(p []byte) { copy(p, data) })
	f, err := l.fs.OpenFile(filepath.Join(l.dir, headName), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: head: %w", err)
	}
	_, err = f.Write(frame)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: head: %w", err)
	}
	if !l.head {
		l.head, l.newEntry = true, true
	}
	l.headDirty = true
	if l.opt.Sync == SyncAlways {
		return l.Sync()
	}
	return nil
}

// Head returns the log's head record; ok is false when the log has none,
// or a crash tore it.
func (l *Log) Head() (rec Record, ok bool, err error) {
	raw, err := l.fs.ReadFile(filepath.Join(l.dir, headName))
	if errors.Is(err, fs.ErrNotExist) {
		return Record{}, false, nil
	}
	if err != nil {
		return Record{}, false, fmt.Errorf("wal: head: %w", err)
	}
	rec, ok = parseHead(raw)
	return rec, ok, nil
}

// parseHead decodes a head file: exactly one whole, checksum-valid frame.
func parseHead(raw []byte) (Record, bool) {
	if n, _, count := validPrefix(raw); count != 1 || n != int64(len(raw)) {
		return Record{}, false
	}
	rec, _ := recordAt(raw, 0)
	return rec, true
}

// recordAt decodes the valid frame at raw[off:] and returns the offset of
// the next one.
func recordAt(raw []byte, off int) (Record, int) {
	size := int(binary.LittleEndian.Uint32(raw[off:]))
	payload := raw[off+headerSize : off+headerSize+size]
	return Record{
		Seq:  binary.LittleEndian.Uint64(payload),
		Time: time.Unix(0, int64(binary.LittleEndian.Uint64(payload[8:]))),
		Data: payload[metaSize:],
	}, off + headerSize + size
}

// Sync makes every record written so far durable: it fsyncs the head, the
// segments rotated out since the last Sync, the current segment, and the
// log's directory once it has gained a file. It does nothing when nothing
// is outstanding.
func (l *Log) Sync() error {
	if l.f == nil {
		return ErrClosed
	}
	if l.headDirty {
		if err := l.syncPath(filepath.Join(l.dir, headName)); err != nil {
			return err
		}
		l.headDirty = false
	}
	for len(l.unsynced) > 0 {
		if err := l.syncPath(filepath.Join(l.dir, segName(l.unsynced[0]))); err != nil {
			return err
		}
		l.unsynced = l.unsynced[1:]
	}
	if l.dirty {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
		l.dirty = false
	}
	if l.newEntry {
		if err := l.syncPath(l.dir); err != nil {
			return err
		}
		l.newEntry = false
	}
	return nil
}

// syncPath fsyncs the head, a closed segment or the log's directory
// through a fresh read-only descriptor.
func (l *Log) syncPath(path string) error {
	f, err := l.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	err = f.Sync()
	f.Close()
	if err != nil {
		return fmt.Errorf("wal: sync %s: %w", path, err)
	}
	return nil
}

// rotate closes the current segment and starts the next one. A segment
// closed with unsynced appends is left for the next Sync.
func (l *Log) rotate() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if l.dirty {
		l.unsynced = append(l.unsynced, l.segIdx)
		l.dirty = false
	}
	l.newEntry = true
	l.segIdx++
	l.segSize = 0
	l.segments = append(l.segments, l.segIdx)
	return l.openSegment()
}

// Replay streams every appended record on disk, oldest first, to fn; the
// head is read with Head. Call it after Open and before any Append; fn
// errors abort the replay.
func (l *Log) Replay(fn func(Record) error) error {
	for _, seg := range l.segments {
		raw, err := l.fs.ReadFile(filepath.Join(l.dir, segName(seg)))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // fresh segment not yet created by an append
			}
			return fmt.Errorf("wal: replay: %w", err)
		}
		for off := 0; len(raw)-off >= headerSize; {
			var rec Record
			rec, off = recordAt(raw, off)
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// Reset discards every record, the head included — used after the covered
// state has been checkpointed into a snapshot — and starts an empty
// segment. The last sequence number is retained so appends continue the
// stream's numbering.
func (l *Log) Reset() error {
	if l.f == nil {
		return ErrClosed
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	l.f = nil
	for _, seg := range l.segments {
		if err := l.fs.Remove(filepath.Join(l.dir, segName(seg))); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("wal: reset: %w", err)
		}
	}
	if l.head {
		if err := l.fs.Remove(filepath.Join(l.dir, headName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("wal: reset: %w", err)
		}
		l.head, l.headDirty = false, false
	}
	l.segIdx = 1
	l.segSize = 0
	l.segments = []int{1}
	l.dirty = false
	l.unsynced = nil
	l.newEntry = true
	return l.openSegment()
}

// Close closes the log without syncing it: under SyncNever the owner
// calls Sync first if the tail must be durable. Further appends fail with
// ErrClosed.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
