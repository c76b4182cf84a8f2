package secfile

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

var errTest = errors.New("secfile test: bad file")

var testFormat = Format{Magic: "SECTEST\x01", Version: 3, Count: 8, Err: errTest}

type termID int32

type fixture struct {
	ids    []termID
	u32s   []uint32
	u64s   []uint64
	floats []float64
	none   []int32
	strs   []string
}

var fix = fixture{
	ids:    []termID{0, 5, -3, math.MaxInt32},
	u32s:   []uint32{1, math.MaxUint32},
	u64s:   []uint64{0, 1 << 40, math.MaxUint64},
	floats: []float64{0, -1.5, math.Inf(1), math.SmallestNonzeroFloat64},
	strs:   []string{"", "a", "zürich ✓", "", "tail"},
}

// writeFixture writes fix as testFormat: a record section, four typed
// columns, an empty column and a string column.
func writeFixture(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, testFormat)
	w.Section()
	w.U32(7)
	w.U64(1 << 33)
	io.WriteString(w, "odd")
	WriteColumn(w, fix.ids)
	WriteColumn(w, fix.u32s)
	WriteColumn(w, fix.u64s)
	WriteColumn(w, fix.floats)
	WriteColumn(w, fix.none)
	w.Strings(len(fix.strs), func(i int) string { return fix.strs[i] })
	if err := w.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := writeFixture(t)
	if len(data)%8 != 0 {
		t.Errorf("file length %d is not 8-aligned", len(data))
	}
	secs, err := testFormat.Sections(data)
	if err != nil {
		t.Fatalf("Sections: %v", err)
	}
	if len(secs) != testFormat.Count {
		t.Fatalf("%d sections, want %d", len(secs), testFormat.Count)
	}
	if got := string(secs[0]); got != "\x07\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00odd" {
		t.Errorf("record section = %q", got)
	}
	ids, err := Column[termID](testFormat, secs[1], len(fix.ids), "ids")
	if err != nil || !reflect.DeepEqual(ids, fix.ids) {
		t.Errorf("ids = %v, %v", ids, err)
	}
	u32s, err := Column[uint32](testFormat, secs[2], -1, "u32s")
	if err != nil || !reflect.DeepEqual(u32s, fix.u32s) {
		t.Errorf("u32s = %v, %v", u32s, err)
	}
	u64s, err := Column[uint64](testFormat, secs[3], len(fix.u64s), "u64s")
	if err != nil || !reflect.DeepEqual(u64s, fix.u64s) {
		t.Errorf("u64s = %v, %v", u64s, err)
	}
	floats, err := Column[float64](testFormat, secs[4], -1, "floats")
	if err != nil || !reflect.DeepEqual(floats, fix.floats) {
		t.Errorf("floats = %v, %v", floats, err)
	}
	none, err := Column[int32](testFormat, secs[5], 0, "none")
	if err != nil || len(none) != 0 {
		t.Errorf("empty column = %v, %v", none, err)
	}
	col, err := testFormat.StringColumn(secs[6], secs[7], len(fix.strs), "strs")
	if err != nil {
		t.Fatalf("StringColumn: %v", err)
	}
	if col.Len() != len(fix.strs) {
		t.Fatalf("Len = %d, want %d", col.Len(), len(fix.strs))
	}
	for i, want := range fix.strs {
		if got := col.At(i); got != want {
			t.Errorf("At(%d) = %q, want %q", i, got, want)
		}
	}

	// Column views alias the file on this (aligned) input.
	if &ids[0] != (*termID)(ptr(secs[1])) {
		t.Error("int32 column was copied, not aliased")
	}
}

// TestSectionsEveryByteFlip: each single-byte flip either fails with
// the format's error or, in padding and reserved bytes, yields the
// original sections; every truncation fails.
func TestSectionsEveryByteFlip(t *testing.T) {
	orig := writeFixture(t)
	want, err := testFormat.Sections(orig)
	if err != nil {
		t.Fatal(err)
	}
	work := make([]byte, len(orig))
	for i := range orig {
		copy(work, orig)
		work[i] ^= 0x5a
		got, err := testFormat.Sections(work)
		if err != nil {
			if !errors.Is(err, errTest) {
				t.Fatalf("flip at %d: error %v does not wrap the format error", i, err)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("flip at %d changed a section's content", i)
		}
	}
	for n := 0; n < len(orig); n++ {
		if _, err := testFormat.Sections(orig[:n]); !errors.Is(err, errTest) {
			t.Fatalf("truncation to %d bytes: err = %v", n, err)
		}
	}
}

func TestRestamp(t *testing.T) {
	data := writeFixture(t)
	secs, err := testFormat.Sections(data)
	if err != nil {
		t.Fatal(err)
	}
	secs[1][0] ^= 0xff // edits data in place
	if _, err := testFormat.Sections(data); !errors.Is(err, errTest) {
		t.Fatalf("edited section passed its checksum: %v", err)
	}
	testFormat.Restamp(data)
	got, err := testFormat.Sections(data)
	if err != nil {
		t.Fatalf("restamped file rejected: %v", err)
	}
	if !bytes.Equal(got[1], secs[1]) {
		t.Error("restamp changed section content")
	}
	for _, junk := range [][]byte{nil, []byte("short"), bytes.Repeat([]byte{0xff}, 64)} {
		before := append([]byte(nil), junk...)
		testFormat.Restamp(junk)
		if !bytes.Equal(junk, before) {
			t.Errorf("Restamp modified a file without a locatable table: %q", junk)
		}
	}
}

func ptr(b []byte) unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(b)) }

func asBytes[T Word](a []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(a))), len(a)*int(unsafe.Sizeof(a[0])))
}

// TestPortablePathsMatch runs the writer and the views as a big-endian
// host would (chunked encode, decode-copy) and requires the same bytes
// and values as the little-endian fast paths.
func TestPortablePathsMatch(t *testing.T) {
	want := writeFixture(t)
	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	hostLittleEndian = false
	if got := writeFixture(t); !bytes.Equal(got, want) {
		t.Fatal("portable encoder wrote different bytes")
	}
	big := make([]uint64, 300) // more than one 512-byte chunk
	for i := range big {
		big[i] = uint64(i) * 0x0101010101
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, Format{Magic: "BIGCOLS\x01", Version: 1, Count: 1, Err: errTest})
	WriteColumn(w, big)
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	secs, err := Format{Magic: "BIGCOLS\x01", Version: 1, Count: 1, Err: errTest}.Sections(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := view[uint64](secs[0]); !reflect.DeepEqual(got, big) {
		t.Fatal("portable decode of a multi-chunk column diverges")
	}
	if got := view[float64](secs[0][:16]); got[1] != math.Float64frombits(big[1]) {
		t.Fatal("portable float decode diverges")
	}
}

func TestViewUnaligned(t *testing.T) {
	b := make([]byte, 17)
	for i := range b {
		b[i] = byte(i)
	}
	got := view[int32](b[1:9])
	if want := []int32{0x04030201, 0x08070605}; !reflect.DeepEqual(got, want) {
		t.Errorf("unaligned int32 view = %#x, want %#x", got, want)
	}
	if ptr(b[1:]) == ptr(asBytes(got)) {
		t.Error("unaligned view aliases its input")
	}
	if got := view[uint64](b[1:17]); got[0] != 0x0807060504030201 || got[1] != 0x100f0e0d0c0b0a09 {
		t.Errorf("unaligned uint64 view = %#x", got)
	}
	if view[uint64](b[:7]) != nil {
		t.Error("view of fewer bytes than one element is not nil")
	}
}

func TestColumnErrors(t *testing.T) {
	b := make([]byte, 12)
	if _, err := Column[uint64](testFormat, b, -1, "x"); !errors.Is(err, errTest) {
		t.Errorf("partial u64: err = %v, want one wrapping the format error", err)
	}
	if _, err := Column[int32](testFormat, b, 4, "x"); !errors.Is(err, errTest) {
		t.Errorf("wrong count: err = %v, want one wrapping the format error", err)
	}
	if a, err := Column[int32](testFormat, b, 3, "x"); err != nil || len(a) != 3 {
		t.Errorf("valid column rejected: %v", err)
	}
}

func TestOffsets(t *testing.T) {
	for _, tc := range []struct {
		off []int32
		max int
		ok  bool
	}{
		{[]int32{0}, 0, true},
		{[]int32{0, 2, 2, 5}, 5, true},
		{nil, 0, false},
		{[]int32{1, 5}, 5, false},
		{[]int32{0, 4}, 5, false},
		{[]int32{0, 3, 2, 5}, 5, false},
		{[]int32{0, -1}, -1, false},
	} {
		err := Offsets(testFormat, tc.off, tc.max, "x")
		if (err == nil) != tc.ok || (err != nil && !errors.Is(err, errTest)) {
			t.Errorf("Offsets(%v, %d) = %v, want ok=%v", tc.off, tc.max, err, tc.ok)
		}
	}
	if err := Offsets(testFormat, []uint32{0, math.MaxUint32}, math.MaxUint32, "x"); err != nil {
		t.Errorf("u32 offsets spanning 4 GiB rejected: %v", err)
	}
}

func TestStringColumnErrors(t *testing.T) {
	secs, err := testFormat.Sections(writeFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	offs, blob := secs[6], secs[7] // "", "a", "zürich ✓", "", "tail"
	for name, run := range map[string]func() error{
		"no offsets":  func() error { _, err := testFormat.StringColumn(offs[:3], blob, -1, "s"); return err },
		"wrong count": func() error { _, err := testFormat.StringColumn(offs, blob, 4, "s"); return err },
		"short blob":  func() error { _, err := testFormat.StringColumn(offs, blob[:2], -1, "s"); return err },
		"decreasing": func() error {
			bad := append([]byte(nil), offs...)
			bad[8] = 0xff // offs[2] = 255 > offs[3]
			_, err := testFormat.StringColumn(bad, blob, -1, "s")
			return err
		},
	} {
		if err := run(); !errors.Is(err, errTest) {
			t.Errorf("%s: err = %v, want one wrapping the format error", name, err)
		}
	}
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after < len(p) {
		n := f.after
		f.after = 0
		return n, errors.New("disk full")
	}
	f.after -= len(p)
	return len(p), nil
}

func TestWriterErrors(t *testing.T) {
	// An I/O failure anywhere surfaces from Finish.
	w := NewWriter(&failWriter{after: 20}, testFormat)
	for i := 0; i < testFormat.Count; i++ {
		WriteColumn(w, make([]uint64, 1<<14)) // overflows the write buffer
	}
	if n, err := w.Write([]byte("x")); err == nil || n != 0 {
		t.Errorf("Write after a failure = %d, %v", n, err)
	}
	if err := w.Finish(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Finish after a write failure = %v", err)
	}

	// A schema that writes the wrong number of sections is a bug the
	// writer reports rather than emitting an unreadable file.
	w = NewWriter(io.Discard, testFormat)
	w.Section()
	if err := w.Finish(); err == nil {
		t.Error("Finish accepted 1 of 8 sections")
	}

	// String columns are u32-offset: past 4 GiB the file fails. The
	// strings share one backing array, so the test allocates 1 MiB.
	chunk := strings.Repeat("x", 1<<20)
	w = NewWriter(io.Discard, testFormat)
	w.Strings(4097, func(int) string { return chunk })
	if err := w.Finish(); err == nil || !strings.Contains(err.Error(), "4 GiB") {
		t.Errorf("Finish after an oversized string column = %v", err)
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "payload")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v, want 0644", st.Mode().Perm())
	}

	// A failed write leaves the previous file and no temp file.
	if err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return errors.New("boom")
	}); err == nil {
		t.Fatal("WriteFile swallowed the write error")
	}
	if got, _ := os.ReadFile(path); string(got) != "payload" {
		t.Errorf("target holds %q after a failed write", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("temp files left behind: %v", ents)
	}

	if err := WriteFile(filepath.Join(dir, "missing", "out.bin"), func(io.Writer) error { return nil }); err == nil {
		t.Error("WriteFile into a missing directory succeeded")
	}
}
