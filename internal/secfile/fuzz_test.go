package secfile_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"unsafe"

	"sofya/internal/candidates"
	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/secfile"
)

var errFuzz = errors.New("fuzz: bad file")

// identity is a sameAs translator for a target that is its own source.
type identity struct{}

func (identity) ToK(iri string) (string, bool) { return iri, true }

// seedFiles returns a real KB snapshot, a real candidate-index sidecar
// and a short file whose footer's tableOff wraps tableOff+tableLen.
func seedFiles(f *testing.F) [][]byte {
	k := kb.New("seed")
	k.AddIRIs("http://x/s1", "http://x/birthPlace", "http://x/o1")
	k.AddIRIs("http://x/s2", "http://x/birthPlace", "http://x/o2")
	k.AddIRIs("http://x/s1", "http://x/deathPlace", "http://x/o2")
	k.AddIRIs("http://x/s2", "http://x/spouse", "http://x/s1")
	var snap bytes.Buffer
	if err := k.WriteSnapshot(&snap); err != nil {
		f.Fatal(err)
	}
	rels := []string{"http://x/birthPlace", "http://x/deathPlace", "http://x/spouse"}
	ix, err := candidates.Build(endpoint.NewLocal(k, 1), rels, identity{}, candidates.Options{Parallelism: 1})
	if err != nil {
		f.Fatal(err)
	}
	var side bytes.Buffer
	if err := ix.WriteIndex(&side); err != nil {
		f.Fatal(err)
	}

	wrap := make([]byte, secfile.PreludeSize+secfile.FooterSize)
	copy(wrap, snap.Bytes()[:secfile.PreludeSize])
	count := binary.LittleEndian.Uint32(wrap[12:])
	foot := wrap[secfile.PreludeSize:]
	binary.LittleEndian.PutUint64(foot, uint64(secfile.PreludeSize)-uint64(count)*secfile.TableEntSize)
	binary.LittleEndian.PutUint32(foot[8:], count)
	binary.LittleEndian.PutUint32(foot[12:], binary.LittleEndian.Uint32(wrap[8:]))
	copy(foot[24:], wrap[:8])
	return [][]byte{snap.Bytes(), side.Bytes(), wrap}
}

// FuzzSections: the container validator must not panic on any input,
// must wrap the format's error when it rejects, and every section it
// returns must lie between the prelude and the section table. The
// format is read off the input's own prelude, and each input is also
// checked with its checksums restamped, so the fuzzer reaches past the
// magic, count and checksum checks into the table and section ranges.
func FuzzSections(f *testing.F) {
	for _, seed := range seedFiles(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		format := secfile.Format{Magic: "SOFYAKB\x01", Version: 1, Count: 24, Err: errFuzz}
		if len(data) >= secfile.PreludeSize {
			format.Magic = string(data[:8])
			format.Version = binary.LittleEndian.Uint32(data[8:])
			format.Count = int(binary.LittleEndian.Uint32(data[12:]))
		}
		checkSections(t, format, data)
		restamped := append([]byte(nil), data...)
		format.Restamp(restamped)
		checkSections(t, format, restamped)
	})
}

func checkSections(t *testing.T, format secfile.Format, data []byte) {
	t.Helper()
	secs, err := format.Sections(data)
	if err != nil {
		if !errors.Is(err, errFuzz) {
			t.Fatalf("error not wrapped in the format error: %v", err)
		}
		return
	}
	if len(secs) != format.Count {
		t.Fatalf("%d sections, format has %d", len(secs), format.Count)
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	tableOff := uintptr(len(data) - secfile.FooterSize - format.Count*secfile.TableEntSize)
	for i, sec := range secs {
		if len(sec) == 0 {
			continue
		}
		off := uintptr(unsafe.Pointer(&sec[0])) - base
		if off < secfile.PreludeSize || off%8 != 0 || off+uintptr(len(sec)) > tableOff {
			t.Fatalf("section %d at [%d,%d) escapes [%d,%d)", i, off, off+uintptr(len(sec)), secfile.PreludeSize, tableOff)
		}
	}
}
