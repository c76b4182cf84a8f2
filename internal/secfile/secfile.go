// Package secfile is the container format shared by the repository's
// binary files (KB snapshots, candidate-index sidecars): a branded,
// versioned sequence of 8-aligned little-endian sections, each with a
// CRC-32C, indexed by a section table that sits before a fixed footer.
//
//	offset 0   prelude (16B): magic | version u32 | sectionCount u32
//	           sections, each 8-byte aligned, in fixed id order
//	           section table: 24B per section — off u64 | len u64 | crc u32 | pad
//	end-32     footer (32B): tableOff u64 | sectionCount u32 | version u32
//	                         | tableCRC u32 | pad | magic again
//
// The table sits at the end so writing is a single streaming pass
// (a section's length and checksum are only known once it is written);
// readers start from the footer. A schema — the list of section ids,
// what each holds and its own structural checks — lives with the
// package that owns the data; this package knows only the container,
// the typed column encoding, and the atomic file write.
//
// Readers alias the input: column views and strings share the bytes
// they were decoded from on little-endian hosts (sections are 8-aligned
// for this), so the input must stay immutable and alive while any view
// is in use.
package secfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"unsafe"
)

// Container layout sizes, in bytes.
const (
	PreludeSize  = 16 // magic | version u32 | count u32
	TableEntSize = 24 // off u64 | len u64 | crc u32 | reserved u32
	FooterSize   = 32 // tableOff u64 | count u32 | version u32 | tableCRC u32 | reserved u32 | magic
)

// Format identifies one schema's files.
type Format struct {
	Magic   string // 8 bytes, written at both ends of the file
	Version uint32 // checked on read
	Count   int    // fixed section count; ids are 0..Count-1
	Err     error  // wrapped by every error the file's content causes
}

// Errorf reports a defect of the file itself, wrapping f.Err so callers
// can tell corruption from I/O failure.
func (f Format) Errorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", f.Err, fmt.Sprintf(format, args...))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Word is an element type a column can hold: fixed width, stored
// little-endian.
type Word interface {
	~int32 | ~uint32 | ~uint64 | ~float64
}

// ---------------------------------------------------------------------
// Writing

// Writer streams one file: NewWriter emits the prelude, each Section
// call starts the next section, and Finish writes the table and footer.
// The first write error is kept and returned by Finish, so section
// bodies can write unconditionally.
type Writer struct {
	f     Format
	bw    *bufio.Writer
	off   uint64
	err   error
	open  bool // a section is being written
	start uint64
	crc   uint32
	ents  []byte // the section table, appended as sections close
}

// NewWriter starts a file of format f on w. Output is buffered: schemas
// emit string columns and records a few bytes at a time, which must not
// become one syscall each when w is a file.
func NewWriter(w io.Writer, f Format) *Writer {
	sw := &Writer{f: f, bw: bufio.NewWriterSize(w, 1<<16), ents: make([]byte, 0, f.Count*TableEntSize)}
	var prelude [PreludeSize]byte
	copy(prelude[:], f.Magic)
	binary.LittleEndian.PutUint32(prelude[8:], f.Version)
	binary.LittleEndian.PutUint32(prelude[12:], uint32(f.Count))
	sw.raw(prelude[:])
	return sw
}

func (w *Writer) raw(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.bw.Write(p)
	w.off += uint64(n)
	w.err = err
}

var zeroPad [8]byte

func (w *Writer) align8() {
	if rem := w.off % 8; rem != 0 {
		w.raw(zeroPad[:8-rem])
	}
}

func (w *Writer) endSection() {
	if !w.open {
		return
	}
	var ent [TableEntSize]byte
	binary.LittleEndian.PutUint64(ent[0:], w.start)
	binary.LittleEndian.PutUint64(ent[8:], w.off-w.start)
	binary.LittleEndian.PutUint32(ent[16:], w.crc)
	w.ents = append(w.ents, ent[:]...)
	w.open = false
}

// Section ends the current section, if any, and starts the next one at
// the next 8-byte boundary.
func (w *Writer) Section() {
	w.endSection()
	w.align8()
	w.open, w.start, w.crc = true, w.off, 0
}

// Write appends p to the current section and its checksum.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	w.raw(p)
	w.crc = crc32.Update(w.crc, castagnoli, p)
	return len(p), w.err
}

// U32 appends v little-endian to the current section.
func (w *Writer) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

// U64 appends v little-endian to the current section.
func (w *Writer) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

// WriteColumn writes a as a section of its own, little-endian. Floats
// go out as raw IEEE-754 bits, so they round-trip bitwise. On
// little-endian hosts the slice's backing bytes are written directly.
func WriteColumn[T Word](w *Writer, a []T) {
	w.Section()
	if len(a) == 0 {
		return
	}
	size := int(unsafe.Sizeof(a[0]))
	if hostLittleEndian {
		w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), len(a)*size))
		return
	}
	var buf [512]byte
	for len(a) > 0 {
		n := min(len(a), len(buf)/size)
		for i := 0; i < n; i++ {
			putWord(buf[i*size:], a[i])
		}
		w.Write(buf[:n*size])
		a = a[n:]
	}
}

func putWord[T Word](b []byte, v T) {
	if unsafe.Sizeof(v) == 4 {
		binary.LittleEndian.PutUint32(b, *(*uint32)(unsafe.Pointer(&v)))
	} else {
		binary.LittleEndian.PutUint64(b, *(*uint64)(unsafe.Pointer(&v)))
	}
}

// Strings writes n strings as two sections: (n+1) u32 byte offsets,
// then the concatenated bytes. The offsets bound the column at 4 GiB;
// a larger column fails the file.
func (w *Writer) Strings(n int, get func(i int) string) {
	var total uint64
	for i := 0; i < n; i++ {
		total += uint64(len(get(i)))
	}
	if total > math.MaxUint32 {
		if w.err == nil {
			w.err = fmt.Errorf("secfile: string column of %d bytes exceeds the 4 GiB offset range", total)
		}
		return
	}
	w.Section()
	off := uint32(0)
	w.U32(0)
	for i := 0; i < n; i++ {
		off += uint32(len(get(i)))
		w.U32(off)
	}
	w.Section()
	for i := 0; i < n; i++ {
		io.WriteString(w, get(i))
	}
}

// Finish ends the last section, writes the section table and footer,
// and flushes. It returns the first error of the whole write.
func (w *Writer) Finish() error {
	w.endSection()
	if n := len(w.ents) / TableEntSize; w.err == nil && n != w.f.Count {
		w.err = fmt.Errorf("secfile: wrote %d sections, format has %d", n, w.f.Count)
	}
	w.align8()
	tableOff := w.off
	w.raw(w.ents)
	var foot [FooterSize]byte
	binary.LittleEndian.PutUint64(foot[0:], tableOff)
	binary.LittleEndian.PutUint32(foot[8:], uint32(w.f.Count))
	binary.LittleEndian.PutUint32(foot[12:], w.f.Version)
	binary.LittleEndian.PutUint32(foot[16:], crc32.Checksum(w.ents, castagnoli))
	copy(foot[24:], w.f.Magic)
	w.raw(foot[:])
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// WriteFile replaces path atomically with what write produces: it
// writes a temp file in the same directory, syncs it, makes it 0644 and
// renames it over path, so an interrupted write never leaves a
// truncated file under the target name.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	// Flush to stable storage before the rename so a crash cannot
	// persist the new name over unwritten data.
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	// CreateTemp makes the file 0600; match the 0644 that os.Create
	// gives other outputs so service users can read it.
	if err := f.Chmod(0o644); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// ---------------------------------------------------------------------
// Reading

// Sections validates the prelude, footer, table checksum and every
// section checksum of data, and returns each section's bytes (aliasing
// data) indexed by section id.
func (f Format) Sections(data []byte) ([][]byte, error) {
	if len(data) < PreludeSize+FooterSize {
		return nil, f.Errorf("file too small (%d bytes)", len(data))
	}
	if string(data[:8]) != f.Magic {
		return nil, f.Errorf("bad magic %q", data[:8])
	}
	foot := data[len(data)-FooterSize:]
	if string(foot[24:]) != f.Magic {
		return nil, f.Errorf("bad trailing magic (file truncated?)")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != f.Version {
		return nil, f.Errorf("unsupported version %d (want %d)", v, f.Version)
	}
	if v := binary.LittleEndian.Uint32(foot[12:]); v != f.Version {
		return nil, f.Errorf("footer version %d disagrees with prelude", v)
	}
	count := binary.LittleEndian.Uint32(foot[8:])
	if uint64(count) != uint64(f.Count) || uint64(binary.LittleEndian.Uint32(data[12:])) != uint64(f.Count) {
		return nil, f.Errorf("section count %d, want %d", count, f.Count)
	}
	tableOff, ok := f.tableOff(data)
	if !ok {
		return nil, f.Errorf("section table at %d does not abut the footer", tableOff)
	}
	table := data[tableOff : len(data)-FooterSize]
	if crc := crc32.Checksum(table, castagnoli); crc != binary.LittleEndian.Uint32(foot[16:]) {
		return nil, f.Errorf("section table checksum mismatch")
	}
	secs := make([][]byte, f.Count)
	for i := range secs {
		ent := table[i*TableEntSize:]
		off := binary.LittleEndian.Uint64(ent)
		length := binary.LittleEndian.Uint64(ent[8:])
		if off%8 != 0 || off < PreludeSize || off+length < off || off+length > tableOff {
			return nil, f.Errorf("section %d range [%d,%d) escapes the file", i, off, off+length)
		}
		sec := data[off : off+length]
		if crc := crc32.Checksum(sec, castagnoli); crc != binary.LittleEndian.Uint32(ent[16:]) {
			return nil, f.Errorf("section %d checksum mismatch", i)
		}
		secs[i] = sec
	}
	return secs, nil
}

// tableOff reads the section table's offset from the footer of data
// (at least FooterSize long) and reports whether the table sits where
// it must: abutting the footer, after the prelude. The test compares
// against the subtraction-safe expected value rather than computing
// tableOff+tableLen, which a huge tableOff could wrap.
func (f Format) tableOff(data []byte) (uint64, bool) {
	tableOff := binary.LittleEndian.Uint64(data[len(data)-FooterSize:])
	tableLen := uint64(f.Count) * TableEntSize
	body := uint64(len(data) - FooterSize)
	return tableOff, body >= PreludeSize+tableLen && tableOff == body-tableLen
}

// Restamp recomputes, in place, the checksum of every section whose
// range lies inside data and then the table checksum, provided the
// footer locates the table. It never fails: on a file whose table it
// cannot find it does nothing. Tests and fuzzers use it to get edited
// sections past the checksums into a schema's structural checks.
func (f Format) Restamp(data []byte) {
	if len(data) < PreludeSize+FooterSize {
		return
	}
	tableOff, ok := f.tableOff(data)
	if !ok {
		return
	}
	foot := data[len(data)-FooterSize:]
	table := data[tableOff : len(data)-FooterSize]
	for i := 0; i < f.Count; i++ {
		ent := table[i*TableEntSize:]
		off := binary.LittleEndian.Uint64(ent)
		end := off + binary.LittleEndian.Uint64(ent[8:])
		if end >= off && end <= tableOff {
			binary.LittleEndian.PutUint32(ent[16:], crc32.Checksum(data[off:end], castagnoli))
		}
	}
	binary.LittleEndian.PutUint32(foot[16:], crc32.Checksum(table, castagnoli))
}

// view returns b as a little-endian []T. On little-endian hosts with
// aligned data the slice aliases b (the zero-copy path); otherwise it
// decodes into a fresh slice. Trailing bytes short of one element are
// ignored; Column checks the length.
func view[T Word](b []byte) []T {
	var zero T
	size := int(unsafe.Sizeof(zero))
	n := len(b) / size
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%uintptr(size) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	for i := range out {
		if size == 4 {
			*(*uint32)(unsafe.Pointer(&out[i])) = binary.LittleEndian.Uint32(b[i*size:])
		} else {
			*(*uint64)(unsafe.Pointer(&out[i])) = binary.LittleEndian.Uint64(b[i*size:])
		}
	}
	return out
}

// Column views section sec as a []T, checking that it holds whole
// elements and, when want >= 0, exactly want of them.
func Column[T Word](f Format, sec []byte, want int, what string) ([]T, error) {
	var zero T
	size := int(unsafe.Sizeof(zero))
	if len(sec)%size != 0 {
		return nil, f.Errorf("%s section length %d is not a multiple of %d", what, len(sec), size)
	}
	if want >= 0 && len(sec)/size != want {
		return nil, f.Errorf("%s section has %d entries, want %d", what, len(sec)/size, want)
	}
	return view[T](sec), nil
}

// Offsets checks that off is a CSR offset array over max elements: it
// starts at 0, ends at max and never decreases.
func Offsets[T ~int32 | ~uint32](f Format, off []T, max int, what string) error {
	if len(off) == 0 || off[0] != 0 || int64(off[len(off)-1]) != int64(max) {
		return f.Errorf("%s offsets do not span [0,%d]", what, max)
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return f.Errorf("%s offsets decrease at entry %d", what, i)
		}
	}
	return nil
}

// Strings is a validated view of a string column written by
// Writer.Strings. Its strings alias the file bytes.
type Strings struct {
	offs []uint32
	blob []byte
}

// StringColumn validates the offsets section offSec against the blob
// section and returns the column view. When n >= 0 the column must hold
// exactly n strings; otherwise its length comes from the offsets.
func (f Format) StringColumn(offSec, blob []byte, n int, what string) (Strings, error) {
	if n < 0 {
		n = len(offSec)/4 - 1
	}
	if n < 0 || len(offSec) != (n+1)*4 {
		return Strings{}, f.Errorf("%s offsets section has %d bytes, want %d", what, len(offSec), (n+1)*4)
	}
	offs := view[uint32](offSec)
	if err := Offsets(f, offs, len(blob), what); err != nil {
		return Strings{}, err
	}
	return Strings{offs: offs, blob: blob}, nil
}

// Len is the number of strings in the column.
func (s Strings) Len() int { return len(s.offs) - 1 }

// At returns string i, sharing the column's storage.
func (s Strings) At(i int) string {
	lo, hi := s.offs[i], s.offs[i+1]
	if lo == hi {
		return ""
	}
	return unsafe.String(&s.blob[lo], hi-lo)
}
