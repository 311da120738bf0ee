package xdr

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestUint32RoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Uint32(0xdeadbeef)
	if e.Len() != 4 {
		t.Fatalf("encoded length %d, want 4", e.Len())
	}
	d := NewDecoder(e.Bytes())
	v, err := d.Uint32()
	if err != nil || v != 0xdeadbeef {
		t.Fatalf("got %x, %v", v, err)
	}
}

func TestBigEndianWire(t *testing.T) {
	e := NewEncoder()
	e.Uint32(1)
	if !bytes.Equal(e.Bytes(), []byte{0, 0, 0, 1}) {
		t.Fatalf("not big-endian: %v", e.Bytes())
	}
}

func TestOpaquePadding(t *testing.T) {
	for n := 0; n <= 9; n++ {
		e := NewEncoder()
		e.Opaque(make([]byte, n))
		want := SizeOpaque(n)
		if e.Len() != want {
			t.Errorf("opaque(%d): encoded %d bytes, want %d", n, e.Len(), want)
		}
		if e.Len()%4 != 0 {
			t.Errorf("opaque(%d): not 4-aligned", n)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"", "a", "abc", "abcd", "hello world", "日本語"} {
		e := NewEncoder()
		e.String(s)
		d := NewDecoder(e.Bytes())
		got, err := d.String()
		if err != nil || got != s {
			t.Fatalf("round-trip %q: got %q, %v", s, got, err)
		}
		if d.Remaining() != 0 {
			t.Fatalf("%q: %d trailing bytes", s, d.Remaining())
		}
	}
}

func TestBoolRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Bool(true)
	e.Bool(false)
	d := NewDecoder(e.Bytes())
	a, _ := d.Bool()
	b, err := d.Bool()
	if err != nil || !a || b {
		t.Fatalf("bool round-trip: %v %v %v", a, b, err)
	}
}

func TestShortBufferErrors(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	if _, err := d.Uint32(); err != ErrShortBuffer {
		t.Fatalf("uint32 on short buffer: %v", err)
	}
	if _, err := d.Uint64(); err != ErrShortBuffer {
		t.Fatalf("uint64 on short buffer: %v", err)
	}
	if _, err := d.Opaque(); err != ErrShortBuffer {
		t.Fatalf("opaque on short buffer: %v", err)
	}
}

func TestHostileLengthWord(t *testing.T) {
	e := NewEncoder()
	e.Uint32(0xffffffff) // absurd opaque length
	d := NewDecoder(e.Bytes())
	if _, err := d.Opaque(); err != ErrTooLong {
		t.Fatalf("hostile length: %v, want ErrTooLong", err)
	}
}

func TestTruncatedOpaqueBody(t *testing.T) {
	e := NewEncoder()
	e.Uint32(100) // claims 100 bytes, provides none
	d := NewDecoder(e.Bytes())
	if _, err := d.Opaque(); err != ErrShortBuffer {
		t.Fatalf("truncated opaque: %v", err)
	}
}

type testMsg struct {
	A uint32
	B int64
	C string
	D []byte
	E bool
	F float64
}

func (m *testMsg) MarshalXDR(e *Encoder) {
	e.Uint32(m.A)
	e.Int64(m.B)
	e.String(m.C)
	e.Opaque(m.D)
	e.Bool(m.E)
	e.Float64(m.F)
}

func (m *testMsg) UnmarshalXDR(d *Decoder) error {
	var err error
	if m.A, err = d.Uint32(); err != nil {
		return err
	}
	if m.B, err = d.Int64(); err != nil {
		return err
	}
	if m.C, err = d.String(); err != nil {
		return err
	}
	if m.D, err = d.Opaque(); err != nil {
		return err
	}
	if m.E, err = d.Bool(); err != nil {
		return err
	}
	m.F, err = d.Float64()
	return err
}

// Property: any message round-trips exactly through Marshal/Unmarshal.
func TestPropertyMessageRoundTrip(t *testing.T) {
	f := func(a uint32, b int64, c string, d []byte, e bool, fl float64) bool {
		in := &testMsg{A: a, B: b, C: c, D: d, E: e, F: fl}
		var out testMsg
		if err := Unmarshal(Marshal(in), &out); err != nil {
			return false
		}
		return out.A == in.A && out.B == in.B && out.C == in.C &&
			bytes.Equal(out.D, in.D) && out.E == in.E &&
			(out.F == in.F || (out.F != out.F && in.F != in.F)) // NaN-safe
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsTrailingBytes(t *testing.T) {
	e := NewEncoder()
	(&testMsg{}).MarshalXDR(e)
	e.Uint32(99) // junk
	var out testMsg
	if err := Unmarshal(e.Bytes(), &out); err == nil {
		t.Fatal("trailing bytes not rejected")
	}
}

func TestFixedOpaqueRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.FixedOpaque([]byte{1, 2, 3, 4, 5})
	if e.Len() != 8 {
		t.Fatalf("fixed opaque of 5 encodes to %d, want 8", e.Len())
	}
	d := NewDecoder(e.Bytes())
	got, err := d.FixedOpaque(5)
	if err != nil || !bytes.Equal(got, []byte{1, 2, 3, 4, 5}) {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder()
	e.Uint64(7)
	e.Reset()
	if e.Len() != 0 {
		t.Fatal("reset did not clear buffer")
	}
}

// gatherSizes straddles the gather threshold, with lengths that are and are
// not multiples of 4 (the padding a gathering encoder emits itself).
var gatherSizes = []int{0, 3, GatherMin - 1, GatherMin, GatherMin + 1, GatherMin + 2, GatherMin + 3, 2<<20 + 5}

// TestGatherMatchesContiguous pins the gather-write invariant: the segments
// of a gathering encoder concatenate to exactly the contiguous encoding,
// bodies at or above GatherMin are referenced rather than copied, and
// smaller ones are copied.
func TestGatherMatchesContiguous(t *testing.T) {
	var g Encoder
	for _, n := range gatherSizes {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i*7 + 1)
		}
		encode := func(e *Encoder) {
			e.Uint32(0xfeedface)
			e.Opaque(body)
			e.Opaque([]byte("tail"))
			e.Opaque(body)
			e.Uint64(42)
		}
		flat := NewEncoder()
		encode(flat)
		g.Gather()
		encode(&g)
		segs := g.Buffers(nil)
		if got := bytes.Join(segs, nil); !bytes.Equal(got, flat.Bytes()) {
			t.Fatalf("n=%d: gathered encoding differs from contiguous (%d vs %d bytes)", n, len(got), flat.Len())
		}
		if g.Len() != flat.Len() {
			t.Fatalf("n=%d: Len %d, contiguous %d", n, g.Len(), flat.Len())
		}
		aliased := 0
		for _, s := range segs {
			if len(s) > 0 && n > 0 && &s[0] == &body[0] {
				aliased++
			}
		}
		want := 0
		if n >= GatherMin {
			want = 2
		}
		if aliased != want {
			t.Fatalf("n=%d: %d segments reference the body, want %d", n, aliased, want)
		}
	}
}

// TestGatherBytesPanics guards against reading a gathered encoding as one
// buffer, which would silently drop the bodies.
func TestGatherBytesPanics(t *testing.T) {
	var e Encoder
	e.Gather()
	e.Opaque(make([]byte, GatherMin))
	defer func() {
		if recover() == nil {
			t.Fatal("Bytes on a gathered encoding did not panic")
		}
	}()
	e.Bytes()
}
