package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// This file implements the durable on-disk form of a Table: a versioned
// binary columnar snapshot. Unlike WriteFingerprint — which renders every
// cell through a canonical per-cell tag stream for hashing — the snapshot
// serializes the typed column buffers themselves (float values, packed
// interval upper bounds, span and null bitmaps, the text dictionary and its
// id vector), so writing and reading are straight buffer copies and the
// reconstructed table is storage-identical to the original: its
// WriteFingerprint stream is bit-for-bit the same. A CRC-32 trailer detects
// torn or corrupted files; ReadSnapshot never returns a table from a stream
// whose checksum does not verify.
//
// Layout (all integers little-endian):
//
//	u64 magic        0xC01A51A9
//	u64 version      1
//	u64 ncols, u64 nrows
//	ncols × { u64 name-len, name bytes, u8 class, u8 kind }
//	ncols × column storage:
//	    u8  flags    bit0 nulls, bit1 spans, bit2 num, bit3 hi, bit4 text
//	    [nulls]  u64 nwords, nwords × u64
//	    [spans]  u64 nwords, nwords × u64
//	    [num]    nrows × u64 float bits
//	    [hi]     nrows × u64 float bits
//	    [text]   u64 nstrs, nstrs × { u64 len, bytes }, nrows × u32 id
//	u32 crc32(IEEE) of everything above
const (
	snapshotMagic   = 0xC01A51A9
	snapshotVersion = 1
)

const (
	snapHasNulls byte = 1 << iota
	snapHasSpans
	snapHasNum
	snapHasHi
	snapHasText
)

// WriteSnapshot writes the table as a versioned binary columnar snapshot.
// The stream round-trips through ReadSnapshot into a table whose canonical
// fingerprint (WriteFingerprint) is bit-identical to the receiver's.
func (t *Table) WriteSnapshot(w io.Writer) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	sw := &snapWriter{w: bw}
	sw.u64(snapshotMagic)
	sw.u64(snapshotVersion)
	sw.u64(uint64(t.schema.Len()))
	sw.u64(uint64(t.nrows))
	for i := 0; i < t.schema.Len(); i++ {
		c := t.schema.Column(i)
		sw.str(c.Name)
		sw.byte(byte(c.Class))
		sw.byte(byte(c.Kind))
	}
	for _, c := range t.cols {
		sw.column(c, t.nrows)
	}
	if sw.err != nil {
		return fmt.Errorf("dataset: write snapshot: %w", sw.err)
	}
	// Flush the payload into the CRC before sealing the trailer, then write
	// the checksum directly (it must not hash itself).
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("dataset: write snapshot: %w", err)
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	if _, err := w.Write(trailer[:]); err != nil {
		return fmt.Errorf("dataset: write snapshot: %w", err)
	}
	return nil
}

type snapWriter struct {
	w   *bufio.Writer
	err error
}

func (s *snapWriter) byte(b byte) {
	if s.err == nil {
		s.err = s.w.WriteByte(b)
	}
}

// room makes n bytes free in the bufio.Writer's buffer, so that a word is
// appended in place (AvailableBuffer) rather than through a slice of its
// own, which would move to the heap.
func (s *snapWriter) room(n int) bool {
	if s.err == nil && s.w.Available() < n {
		s.err = s.w.Flush()
	}
	return s.err == nil
}

func (s *snapWriter) u64(v uint64) {
	if s.room(8) {
		_, s.err = s.w.Write(binary.LittleEndian.AppendUint64(s.w.AvailableBuffer(), v))
	}
}

func (s *snapWriter) u32(v uint32) {
	if s.room(4) {
		_, s.err = s.w.Write(binary.LittleEndian.AppendUint32(s.w.AvailableBuffer(), v))
	}
}

func (s *snapWriter) str(v string) {
	s.u64(uint64(len(v)))
	if s.err == nil {
		_, s.err = s.w.WriteString(v)
	}
}

func (s *snapWriter) words(b bitset) {
	s.u64(uint64(len(b)))
	for _, w := range b {
		s.u64(w)
	}
}

func (s *snapWriter) floats(fs []float64) {
	for _, f := range fs {
		s.u64(math.Float64bits(f))
	}
}

func (s *snapWriter) column(c *colData, nrows int) {
	var flags byte
	if c.nulls != nil {
		flags |= snapHasNulls
	}
	if c.spans != nil {
		flags |= snapHasSpans
	}
	if c.num != nil {
		flags |= snapHasNum
	}
	if c.hi != nil {
		flags |= snapHasHi
	}
	if c.ids != nil {
		flags |= snapHasText
	}
	s.byte(flags)
	if c.nulls != nil {
		s.words(c.nulls)
	}
	if c.spans != nil {
		s.words(c.spans)
	}
	if c.num != nil {
		s.floats(c.num[:nrows])
	}
	if c.hi != nil {
		s.floats(c.hi[:nrows])
	}
	if c.ids != nil {
		s.u64(uint64(len(c.dict.strs)))
		for _, str := range c.dict.strs {
			s.str(str)
		}
		for _, id := range c.ids[:nrows] {
			s.u32(uint32(id))
		}
	}
}

// ReadSnapshot reads a table previously written by WriteSnapshot, verifying
// the trailing checksum. The reconstructed table reuses the snapshot's
// column buffers directly, so its canonical fingerprint matches the written
// table bit for bit.
func ReadSnapshot(r io.Reader) (*Table, error) {
	sr := &snapReader{r: bufio.NewReader(r), crc: crc32.NewIEEE()}
	if magic := sr.u64(); sr.err == nil && magic != snapshotMagic {
		return nil, fmt.Errorf("dataset: read snapshot: bad magic %#x", magic)
	}
	if version := sr.u64(); sr.err == nil && version != snapshotVersion {
		return nil, fmt.Errorf("dataset: read snapshot: unsupported version %d", version)
	}
	ncols := sr.u64()
	nrows := sr.u64()
	if sr.err == nil && (ncols > 1<<20 || nrows > 1<<40) {
		return nil, fmt.Errorf("dataset: read snapshot: implausible shape %d×%d", nrows, ncols)
	}
	cols := make([]Column, 0, min(ncols, snapAllocChunk))
	for i := uint64(0); i < ncols && sr.err == nil; i++ {
		name := sr.str()
		class := AttrClass(sr.byte())
		kind := ValueKind(sr.byte())
		if sr.err == nil && (class < Identifier || class > Sensitive) {
			return nil, fmt.Errorf("dataset: read snapshot: column %q: bad class %d", name, class)
		}
		cols = append(cols, Column{Name: name, Class: class, Kind: kind})
	}
	if sr.err != nil {
		return nil, fmt.Errorf("dataset: read snapshot: %w", sr.err)
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("dataset: read snapshot: %w", err)
	}
	t := &Table{schema: schema, nrows: int(nrows)}
	t.cols = make([]*colData, 0, min(ncols, snapAllocChunk))
	for i := uint64(0); i < ncols; i++ {
		c, err := sr.column(schema.Column(int(i)).Kind, int(nrows))
		if err != nil {
			return nil, fmt.Errorf("dataset: read snapshot: column %q: %w", schema.Column(int(i)).Name, err)
		}
		t.cols = append(t.cols, c)
	}
	// Everything consumed up to here is covered by the CRC; the trailer
	// itself is read without hashing.
	sum := sr.crc.Sum32()
	var trailer [4]byte
	if _, err := io.ReadFull(sr.r, trailer[:]); err != nil {
		return nil, fmt.Errorf("dataset: read snapshot: checksum trailer: %w", err)
	}
	if got := binary.LittleEndian.Uint32(trailer[:]); got != sum {
		return nil, fmt.Errorf("dataset: read snapshot: checksum mismatch (stored %08x, computed %08x)", got, sum)
	}
	return t, nil
}

// snapReader hashes exactly the bytes it consumes (not the bufio
// read-ahead), so the running CRC at the trailer covers the payload alone.
// Words are read through scratch, which lives in the reader, so a word
// costs no allocation; strings up to snapAllocChunk bytes are read through
// buf, which the reader also owns, so a string costs only its conversion.
type snapReader struct {
	r       *bufio.Reader
	crc     hash.Hash32
	err     error
	scratch [8]byte
	buf     []byte
}

// fill reads len(buf) payload bytes and feeds them into the checksum.
func (s *snapReader) fill(buf []byte) bool {
	if s.err != nil {
		return false
	}
	if _, err := io.ReadFull(s.r, buf); err != nil {
		s.err = err
		return false
	}
	s.crc.Write(buf)
	return true
}

func (s *snapReader) byte() byte {
	if !s.fill(s.scratch[:1]) {
		return 0
	}
	return s.scratch[0]
}

func (s *snapReader) u64() uint64 {
	if !s.fill(s.scratch[:8]) {
		return 0
	}
	return binary.LittleEndian.Uint64(s.scratch[:8])
}

func (s *snapReader) u32() uint32 {
	if !s.fill(s.scratch[:4]) {
		return 0
	}
	return binary.LittleEndian.Uint32(s.scratch[:4])
}

func (s *snapReader) str() string {
	n := s.u64()
	if s.err != nil {
		return ""
	}
	if n > 1<<30 {
		s.err = fmt.Errorf("implausible string length %d", n)
		return ""
	}
	if n <= snapAllocChunk {
		if uint64(cap(s.buf)) < n {
			// Geometric growth: at most log₂ snapAllocChunk of these.
			s.buf = make([]byte, 0, max(n, min(2*uint64(cap(s.buf)), snapAllocChunk)))
		}
		b := s.buf[:n]
		if !s.fill(b) {
			return ""
		}
		return string(b)
	}
	// A longer string grows by chunks as bytes actually arrive: a corrupt
	// length header must fail with a read error, not allocate a gigabyte
	// before the stream runs dry (see snapAllocChunk).
	out := make([]byte, 0, snapAllocChunk)
	for read := uint64(0); read < n; {
		c := int(min(n-read, snapAllocChunk))
		out = slices.Grow(out, c)
		if !s.fill(out[len(out) : len(out)+c]) {
			return ""
		}
		out = out[:len(out)+c]
		read += uint64(c)
	}
	return string(out)
}

// snapAllocChunk caps upfront allocation while decoding length-prefixed
// buffers: slices grow by append as bytes actually arrive, so a corrupt or
// truncated header claiming 2^40 rows fails with a read error once the
// stream runs dry instead of attempting a terabyte allocation before the
// checksum could ever be verified.
const snapAllocChunk = 1 << 16

func (s *snapReader) words(nrows int) (bitset, error) {
	n := s.u64()
	if s.err != nil {
		return nil, s.err
	}
	if max := uint64((nrows + 63) / 64); n > max {
		return nil, fmt.Errorf("bitmap has %d words for %d rows", n, nrows)
	}
	b := make(bitset, 0, min(n, snapAllocChunk))
	for i := uint64(0); i < n; i++ {
		w := s.u64()
		if s.err != nil {
			return nil, s.err
		}
		b = append(b, w)
	}
	return b, nil
}

func (s *snapReader) floats(nrows int) ([]float64, error) {
	fs := make([]float64, 0, min(nrows, snapAllocChunk))
	for i := 0; i < nrows; i++ {
		v := s.u64()
		if s.err != nil {
			return nil, s.err
		}
		fs = append(fs, math.Float64frombits(v))
	}
	return fs, nil
}

func (s *snapReader) column(kind ValueKind, nrows int) (*colData, error) {
	flags := s.byte()
	if s.err != nil {
		return nil, s.err
	}
	c := newColData(kind)
	c.n = nrows
	var err error
	if flags&snapHasNulls != 0 {
		if c.nulls, err = s.words(nrows); err != nil {
			return nil, err
		}
	}
	if flags&snapHasSpans != 0 {
		if c.spans, err = s.words(nrows); err != nil {
			return nil, err
		}
	}
	if flags&snapHasNum != 0 {
		if c.num, err = s.floats(nrows); err != nil {
			return nil, err
		}
	}
	if flags&snapHasHi != 0 {
		if c.hi, err = s.floats(nrows); err != nil {
			return nil, err
		}
	}
	if flags&snapHasText != 0 {
		nstrs := s.u64()
		if s.err != nil {
			return nil, s.err
		}
		if nstrs > 1<<32 {
			return nil, fmt.Errorf("implausible dictionary size %d", nstrs)
		}
		c.dict = newIntern(int(min(nstrs, snapAllocChunk)))
		for i := uint64(0); i < nstrs; i++ {
			str := s.str()
			if s.err != nil {
				return nil, s.err
			}
			c.dict.idx[str] = int32(len(c.dict.strs))
			c.dict.strs = append(c.dict.strs, str)
		}
		c.ids = make([]int32, 0, min(nrows, snapAllocChunk))
		for i := 0; i < nrows; i++ {
			id := s.u32()
			if s.err != nil {
				return nil, s.err
			}
			if uint64(id) >= nstrs && !c.nulls.get(i) {
				return nil, fmt.Errorf("row %d: dictionary id %d out of range (%d entries)", i, id, nstrs)
			}
			c.ids = append(c.ids, int32(id))
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	// A live text cell must have a dictionary to resolve against.
	if kind == Text && c.ids == nil {
		for i := 0; i < nrows; i++ {
			if !c.nulls.get(i) {
				return nil, fmt.Errorf("row %d: text cell without a dictionary", i)
			}
		}
	}
	return c, nil
}
