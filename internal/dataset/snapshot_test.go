package dataset

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// snapshotFixture builds a table exercising every storage feature the codec
// serializes: plain numbers, intervals (hi buffer + span bitmap), suppressed
// cells (null bitmap), dictionary text with repeats, and a fully suppressed
// bufferless column (the zero-copy SuppressColumn representation).
func snapshotFixture(t *testing.T) *Table {
	t.Helper()
	s := MustSchema(
		Column{Name: "Name", Class: Identifier, Kind: Text},
		Column{Name: "Dept", Class: QuasiIdentifier, Kind: Text},
		Column{Name: "Age", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "Income", Class: Sensitive, Kind: Number},
	)
	tb := New(s)
	tb.MustAppendRow(Str("Alice"), Str("CS"), Num(28), Num(91250))
	tb.MustAppendRow(Str("Bob"), Str("EE"), Span(25, 30), Num(60125.5))
	tb.MustAppendRow(Str("Carol"), Str("CS"), NullValue(), Num(123456.75))
	tb.MustAppendRow(Str("Dave"), NullValue(), Span(40, 45), Num(71000))
	return tb.WithSuppressed(3)
}

func fingerprintOf(t *testing.T, tab *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.WriteFingerprint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTripFingerprint: the snapshot round-trip preserves the
// canonical fingerprint bit for bit — the property the disk store's
// content-addressed files rely on.
func TestSnapshotRoundTripFingerprint(t *testing.T) {
	orig := snapshotFixture(t)
	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Equal(got) {
		t.Fatal("snapshot round-trip changed the table")
	}
	want := fingerprintOf(t, orig)
	have := fingerprintOf(t, got)
	if !bytes.Equal(want, have) {
		t.Fatalf("fingerprint changed across the round-trip (%d vs %d bytes)", len(want), len(have))
	}
	// The reconstructed table must stay fully usable: mutate a copy without
	// disturbing the original (COW ownership survives deserialization).
	clone := got.Clone()
	if err := clone.SetCell(0, 2, Num(99)); err != nil {
		t.Fatal(err)
	}
	if got.Cell(0, 2).String() == clone.Cell(0, 2).String() {
		t.Fatal("mutating a clone of the deserialized table leaked into the original")
	}
}

// TestSnapshotRoundTripEmptyBuffers: a table of only suppressed cells (nil
// value buffers) and an empty table both round-trip.
func TestSnapshotRoundTripEmptyBuffers(t *testing.T) {
	s := MustSchema(
		Column{Name: "A", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "B", Class: Identifier, Kind: Text},
	)
	empty := New(s)
	sup := New(s)
	sup.MustAppendRow(Num(1), Str("x"))
	sup.MustAppendRow(Num(2), Str("y"))
	sup = sup.WithSuppressed(0, 1)
	for name, tab := range map[string]*Table{"empty": empty, "all-suppressed": sup} {
		var buf bytes.Buffer
		if err := tab.WriteSnapshot(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !tab.Equal(got) {
			t.Fatalf("%s: round-trip changed the table", name)
		}
		if !bytes.Equal(fingerprintOf(t, tab), fingerprintOf(t, got)) {
			t.Fatalf("%s: fingerprint changed", name)
		}
	}
}

// TestSnapshotDetectsCorruption: a flipped payload byte, a truncated stream
// and a wrong magic all fail loudly instead of yielding a table.
func TestSnapshotDetectsCorruption(t *testing.T) {
	orig := snapshotFixture(t)
	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip one byte in the middle of the payload: checksum must catch it
	// (unless the decoder already rejects the malformed structure).
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := ReadSnapshot(bytes.NewReader(flipped)); err == nil {
		t.Error("corrupted payload accepted")
	}

	// Truncation anywhere — including inside the trailer — is an error.
	for _, cut := range []int{len(raw) - 1, len(raw) - 4, len(raw) / 2, 8} {
		if _, err := ReadSnapshot(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncated snapshot (%d of %d bytes) accepted", cut, len(raw))
		}
	}

	// A stream that is not a snapshot at all.
	if _, err := ReadSnapshot(strings.NewReader("Name,Age\nid:text,qi:number\n")); err == nil {
		t.Error("non-snapshot stream accepted")
	}
}

// BenchmarkSnapshotRoundTrip measures the codec on a mixed table — the CI
// smoke keeps it compiling and within one iteration of sanity.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	s := MustSchema(
		Column{Name: "Name", Class: Identifier, Kind: Text},
		Column{Name: "Age", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "Zip", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "Income", Class: Sensitive, Kind: Number},
	)
	tb := New(s)
	for i := 0; i < 4096; i++ {
		tb.MustAppendRow(Str("user"+string(rune('a'+i%26))), Span(float64(i), float64(i+5)), Num(float64(i%97)), Num(float64(i)*1.5))
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := tb.WriteSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// TestSnapshotAllocsDoNotGrowWithRows: both directions move words through
// a buffer they own (the bufio.Writer's, the reader's scratch), so a
// number-only table's WriteSnapshot and ReadSnapshot make as many
// allocations at 2·10⁴ rows as at 10⁴.
func TestSnapshotAllocsDoNotGrowWithRows(t *testing.T) {
	allocs := func(rows int) (write, read float64) {
		tb := New(MustSchema(
			Column{Name: "Age", Class: QuasiIdentifier, Kind: Number},
			Column{Name: "Income", Class: Sensitive, Kind: Number},
		))
		for i := 0; i < rows; i++ {
			tb.MustAppendRow(Num(float64(i%90)), Num(float64(i)*1.5))
		}
		var buf bytes.Buffer
		write = testing.AllocsPerRun(5, func() {
			buf.Reset()
			if err := tb.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
		})
		read = testing.AllocsPerRun(5, func() {
			if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
		return write, read
	}
	w1, r1 := allocs(10000)
	w2, r2 := allocs(20000)
	if w1 != w2 || r1 != r2 {
		t.Errorf("allocations at 10⁴ → 2·10⁴ rows: WriteSnapshot %v → %v, ReadSnapshot %v → %v; want no growth", w1, w2, r1, r2)
	}
}

// TestSnapshotReadAllocsPerDistinctString: reading a text column back costs
// one allocation per distinct string — its conversion — plus a constant:
// the table, the reader's buffers and the pre-sized dictionary, whose map
// allocates its tables up front (about 90 allocations in all at 2·10⁴
// strings).
func TestSnapshotReadAllocsPerDistinctString(t *testing.T) {
	const rows = 20000
	tb := New(MustSchema(
		Column{Name: "Name", Class: Identifier, Kind: Text},
		Column{Name: "Age", Class: QuasiIdentifier, Kind: Number},
	))
	for i := 0; i < rows; i++ {
		tb.MustAppendRow(Str(fmt.Sprintf("person-%06d", i)), Num(float64(i%90)))
	}
	var buf bytes.Buffer
	if err := tb.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(rows + 128); allocs > limit {
		t.Errorf("ReadSnapshot of %d distinct strings made %v allocations, want at most %v", rows, allocs, limit)
	}
}
