package evstore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// recCodec is a columnar codec for the test row type, covering every
// Encoder/Decoder primitive (varint delta, uvarint, string interning).
type recCodec struct{}

func (recCodec) Encode(e *Encoder, rows []rec) {
	prev := int64(0)
	for i := range rows {
		e.Varint(int64(rows[i].ID) - prev)
		prev = int64(rows[i].ID)
	}
	for i := range rows {
		e.String(rows[i].Name)
	}
	for i := range rows {
		e.Varint(rows[i].Dur)
	}
}

func (recCodec) Decode(d *Decoder, n int) []rec {
	rows := make([]rec, n)
	prev := int64(0)
	for i := range rows {
		prev += d.Varint()
		rows[i].ID = int(prev)
	}
	for i := range rows {
		rows[i].Name = d.String()
	}
	for i := range rows {
		rows[i].Dur = d.Varint()
	}
	return rows
}

// aux is a second row type with its own codec, covering the fixed
// float primitive, so every DB in these tests holds two tables.
type aux struct {
	Tag string
	N   float64
}

type auxCodec struct{}

func (auxCodec) Encode(e *Encoder, rows []aux) {
	for i := range rows {
		e.String(rows[i].Tag)
	}
	for i := range rows {
		e.Float64(rows[i].N)
	}
}

func (auxCodec) Decode(d *Decoder, n int) []aux {
	rows := make([]aux, n)
	for i := range rows {
		rows[i].Tag = d.String()
	}
	for i := range rows {
		rows[i].N = d.Float64()
	}
	return rows
}

// testDB builds a two-table schema: "recs" and "extra".
func testDB(t *testing.T) (*DB, *Table[rec], *Table[aux]) {
	t.Helper()
	db := NewDB()
	recs := NewTable[rec]("recs", recCodec{})
	extra := NewTable[aux]("extra", auxCodec{})
	if err := Register(db, recs); err != nil {
		t.Fatal(err)
	}
	if err := Register(db, extra); err != nil {
		t.Fatal(err)
	}
	return db, recs, extra
}

func fillDB(recs *Table[rec], extra *Table[aux], n int) {
	rows := make([]rec, n)
	for i := range rows {
		rows[i] = rec{ID: i * 3, Name: fmt.Sprintf("name-%d", i%7), Dur: int64(i) - 5}
	}
	recs.BatchInsert(rows)
	for i := 0; i < n/100+1; i++ {
		extra.Insert(aux{Tag: fmt.Sprintf("t%d", i), N: float64(i) / 3})
	}
}

func dbEqual(t *testing.T, a, b *DB, ar, br *Table[rec], ax, bx *Table[aux]) {
	t.Helper()
	if !reflect.DeepEqual(ar.Rows(), br.Rows()) {
		t.Fatalf("recs differ: %v vs %v", ar.Rows(), br.Rows())
	}
	if !reflect.DeepEqual(ax.Rows(), bx.Rows()) {
		t.Fatalf("extra differs: %v vs %v", ax.Rows(), bx.Rows())
	}
}

// TestBinaryRoundTrip saves and loads across table sizes, including the
// multi-chunk regime (> chunkSize rows) that drives the parallel
// encode/decode paths. Chunks are always stored uncompressed (flags 0),
// which the subtest names spell out.
func TestBinaryRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 100, chunkSize, chunkSize + 1, 3*chunkSize + 17} {
		t.Run(fmt.Sprintf("n=%d/compress=false", n), func(t *testing.T) {
			src, recs, extra := testDB(t)
			fillDB(recs, extra, n)
			var buf bytes.Buffer
			if err := src.Save(&buf); err != nil {
				t.Fatal(err)
			}
			dst, drecs, dextra := testDB(t)
			if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			dbEqual(t, src, dst, recs, drecs, extra, dextra)
		})
	}
}

// TestLoadOverwritesExisting checks Load replaces prior contents rather
// than appending.
func TestLoadOverwritesExisting(t *testing.T) {
	src, recs, extra := testDB(t)
	fillDB(recs, extra, 50)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst, drecs, dextra := testDB(t)
	fillDB(drecs, dextra, 200)
	if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	dbEqual(t, src, dst, recs, drecs, extra, dextra)
}

// TestCorruptInputsError feeds truncations and bit-flips of a valid
// binary file into Load: every one must produce an error or load
// cleanly — never panic. Truncations must always error.
func TestCorruptInputsError(t *testing.T) {
	src, recs, extra := testDB(t)
	fillDB(recs, extra, 300)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	for cut := 0; cut < len(full); cut += 7 {
		dst, _, _ := testDB(t)
		if err := dst.Load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d loaded without error", cut, len(full))
		}
	}
	for pos := 0; pos < len(full); pos += 11 {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0x41
		dst, _, _ := testDB(t)
		_ = dst.Load(bytes.NewReader(mut)) // must not panic; error optional
	}
}

// legacyGob encodes the DB the way the retired whole-file gob format
// did: a header value, then each table's rows as one flat slice.
func legacyGob(t *testing.T, recs *Table[rec], extra *Table[aux]) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	header := struct {
		Magic   string
		Version int
		Tables  []string
	}{"sgxperf-evstore", 1, []string{"recs", "extra"}}
	for _, v := range []any{header, recs.Rows(), extra.Rows()} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// codecByteOffsets locates the first table's codec byte in the data
// section and in the chunk index of a saved file.
func codecByteOffsets(t *testing.T, full []byte) (data, index int) {
	t.Helper()
	head := func(at int) int {
		_, n := binary.Uvarint(full[at:]) // #tables
		at += n
		l, n := binary.Uvarint(full[at:]) // name length
		return at + n + int(l)
	}
	indexOff := int(binary.LittleEndian.Uint64(full[len(full)-footerSize:]))
	return head(len(magicBinaryV3)), head(indexOff)
}

// streamErr opens data as a stream and drains every table, returning
// the first error.
func streamErr(data []byte) error {
	sr, err := NewStreamReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return err
	}
	recs, err := NewStreamCursor[rec](sr, "recs", recCodec{})
	if err != nil {
		return err
	}
	if _, err := drain(recs); err != nil {
		return err
	}
	extra, err := NewStreamCursor[aux](sr, "extra", auxCodec{})
	if err != nil {
		return err
	}
	_, err = drain(extra)
	return err
}

// TestCorruptErrorsAreErrCorrupt checks that structural damage and every
// retired encoding report ErrCorrupt, through both the resident loader
// and the stream reader with its cursors.
func TestCorruptErrorsAreErrCorrupt(t *testing.T) {
	src, recs, extra := testDB(t)
	fillDB(recs, extra, 10)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	patched := func(edit func(b []byte)) []byte {
		b := append([]byte(nil), full...)
		edit(b)
		return b
	}
	dataCodec, indexCodec := codecByteOffsets(t, full)
	if full[dataCodec] != codecColumnar || full[indexCodec] != codecColumnar {
		t.Fatalf("codec byte offsets %d/%d do not hold the columnar codec", dataCodec, indexCodec)
	}
	sr, err := NewStreamReader(bytes.NewReader(full), int64(len(full)))
	if err != nil {
		t.Fatal(err)
	}
	first := sr.Chunks("recs")[0]
	_, nrowsLen := binary.Uvarint(full[first.Offset:])
	flagsAt := int(first.Offset) + nrowsLen

	// The file's last chunk with its payload length re-encoded as
	// 2^28-1 (maxDecodeChunkLen-1, still within the decode limit). The
	// longer varint shifts the index, so the footer's index offset moves
	// with it; no chunk offset does, so the file still opens as a stream
	// and the bad length is met by the cursor's chunk read.
	last := sr.Chunks("extra")[0]
	if r := sr.Chunks("recs"); r[len(r)-1].Offset > last.Offset {
		last = r[len(r)-1]
	}
	hugeLen := func() []byte {
		at := int(last.Offset)
		_, n := binary.Uvarint(full[at:]) // #rows
		at += n + 1                       // flags
		_, n = binary.Uvarint(full[at:])  // payload length
		b := append([]byte(nil), full[:at]...)
		b = binary.AppendUvarint(b, maxDecodeChunkLen-1)
		b = append(b, full[at+n:]...)
		foot := b[len(b)-footerSize:]
		idx := binary.LittleEndian.Uint64(foot)
		binary.LittleEndian.PutUint64(foot, idx+uint64(len(b)-len(full)))
		return b
	}()
	if _, err := NewStreamReader(bytes.NewReader(hugeLen), int64(len(hugeLen))); err != nil {
		t.Fatalf("patched-length file does not open as a stream: %v", err)
	}

	for name, data := range map[string][]byte{
		// Drop the tail of the index and footer.
		"truncated": full[:len(full)-3],
		"gob":       legacyGob(t, recs, extra),
		"v2 magic":  asV2(t, full),
		// A table written through the retired per-chunk gob fallback.
		"codec byte 0": patched(func(b []byte) { b[dataCodec], b[indexCodec] = 0, 0 }),
		"flate flag":   patched(func(b []byte) { b[flagsAt] = 1 }),
		"huge length":  hugeLen,
	} {
		dst, _, _ := testDB(t)
		if err := dst.Load(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Load error %v is not ErrCorrupt", name, err)
		}
		if err := streamErr(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: stream error %v is not ErrCorrupt", name, err)
		}
	}

	// A declared length is not an allocation: the failing load costs
	// memory for the few hundred bytes behind it, not for 256 MiB.
	dst, _, _ := testDB(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = dst.Load(bytes.NewReader(hugeLen))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge length: Load error %v is not ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("huge length: failing Load allocated %d bytes, want < 1 MiB", grew)
	}
}

// FuzzCodecRoundTrip drives three properties at once: (1) a database
// built from fuzz-derived rows survives encode→decode bit-for-bit —
// through Load and through the streaming chunk cursors, which must
// agree; (2) Load over the raw fuzz bytes themselves returns an error or
// succeeds but never panics; and (3) the same holds for opening the raw
// bytes as a stream and draining its cursors.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello world, this is seed data for rows"))
	f.Add([]byte(magicBinaryV3 + "\x02\x04recs"))
	// A valid save as a seed so mutations explore near-valid inputs.
	{
		db := NewDB()
		recs := NewTable[rec]("recs", recCodec{})
		extra := NewTable[aux]("extra", auxCodec{})
		if Register(db, recs) == nil && Register(db, extra) == nil {
			fillDB(recs, extra, 40)
			var buf bytes.Buffer
			if err := db.Save(&buf); err == nil {
				f.Add(buf.Bytes())
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 2: arbitrary bytes never panic the loader.
		raw, _, _ := testDB(t)
		_ = raw.Load(bytes.NewReader(data))

		// Property 3: arbitrary bytes never panic the stream path either
		// — open, cursor creation and chunk decode all error cleanly.
		_ = streamErr(data)

		// Property 1: rows derived from the fuzz input round-trip exactly.
		src, recs, extra := testDB(t)
		var rows []rec
		for i := 0; i+4 <= len(data); i += 4 {
			rows = append(rows, rec{
				ID:   int(int8(data[i])) * 1000,
				Name: string(data[i+1 : i+3]),
				Dur:  int64(int8(data[i+3])),
			})
		}
		recs.BatchInsert(rows)
		if len(data) > 0 {
			extra.Insert(aux{Tag: string(data[:len(data)%5]), N: float64(len(data))})
		}
		var buf bytes.Buffer
		if err := src.Save(&buf); err != nil {
			t.Fatalf("save: %v", err)
		}
		dst, drecs, dextra := testDB(t)
		if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("load: %v", err)
		}
		if !reflect.DeepEqual(recs.Rows(), drecs.Rows()) {
			t.Fatalf("recs did not round-trip")
		}
		if !reflect.DeepEqual(extra.Rows(), dextra.Rows()) {
			t.Fatalf("extra did not round-trip")
		}
		// Property 1, streaming side: the chunk cursors over the same
		// valid save must deliver exactly the resident rows.
		sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("stream open of a valid save: %v", err)
		}
		if got := drainTable[rec](t, sr, "recs", recCodec{}); !rowsEqual(got, recs.Rows()) {
			t.Fatalf("streamed recs diverge from resident rows")
		}
		if got := drainTable[aux](t, sr, "extra", auxCodec{}); !rowsEqual(got, extra.Rows()) {
			t.Fatalf("streamed extra diverges from resident rows")
		}
	})
}
