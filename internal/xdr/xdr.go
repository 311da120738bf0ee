// Package xdr implements the subset of XDR (RFC 4506) external data
// representation used by the NFSv4.1/pNFS and PVFS2 wire protocols in this
// repository: big-endian 4-byte aligned primitives, variable-length opaques
// and strings, and counted arrays.
//
// Every protocol message implements Marshaler/Unmarshaler, so the same
// byte-exact encoding flows over both the simulated fabric (where only the
// encoded length matters for timing) and real TCP (cmd/pnfs-demo).
package xdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Marshaler is implemented by types that can append their XDR encoding.
type Marshaler interface {
	MarshalXDR(e *Encoder)
}

// Unmarshaler is implemented by types that can decode themselves from XDR.
type Unmarshaler interface {
	UnmarshalXDR(d *Decoder) error
}

// MaxOpaque bounds variable-length fields to guard against corrupt or
// hostile length words (16 MiB is far above any message this repo sends).
const MaxOpaque = 16 << 20

var (
	// ErrShortBuffer is returned when a decode runs past the input.
	ErrShortBuffer = errors.New("xdr: short buffer")
	// ErrTooLong is returned when a length word exceeds MaxOpaque.
	ErrTooLong = errors.New("xdr: variable-length field exceeds limit")
)

// Encoder appends XDR-encoded data to an internal buffer.
//
// A gathering encoder (Gather) does not copy large opaque bodies: each one
// of at least GatherMin bytes becomes its own segment referencing the
// caller's slice, and the encoder emits only the length word and padding
// around it.  Buffers then yields the encoding as an ordered segment list
// for one vectored write; the concatenated segments are byte-identical to
// the contiguous encoding.  Gathered bodies are read again when the
// segments are written, so they must stay unchanged until then.
type Encoder struct {
	buf    []byte
	gather bool
	segs   []segment
}

// segment is one gathered opaque body, to be emitted after buf[:at].
type segment struct {
	at   int
	body []byte
}

// GatherMin is the opaque size at or above which a gathering encoder
// references the body instead of copying it; smaller bodies are copied, so
// small-op frames stay one segment.  The value is not a measured crossover:
// all that is relied on is that it lies between small-op sizes (8 KiB
// reads and writes) and bulk transfer sizes (2 MB).  It is fixed, not a
// tuning knob: gathering never changes the bytes on the wire.
const GatherMin = 32 << 10

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Gather resets e and switches it to gather mode.  The buffer and segment
// list keep their capacity, so a pooled encoder settles at the size of the
// copied part of its messages and allocates nothing per message.
func (e *Encoder) Gather() {
	e.Reset()
	e.gather = true
}

// Bytes returns the encoded buffer (not a copy).  It panics if the encoder
// gathered a body: such an encoding exists only as Buffers.
func (e *Encoder) Bytes() []byte {
	if len(e.segs) > 0 {
		panic("xdr: Bytes on an encoder holding gathered segments")
	}
	return e.buf
}

// Buffers appends the encoding to dst as its ordered segments: runs of the
// internal buffer interleaved with gathered bodies.  Empty runs are
// skipped.
func (e *Encoder) Buffers(dst [][]byte) [][]byte {
	prev := 0
	for _, s := range e.segs {
		if s.at > prev {
			dst = append(dst, e.buf[prev:s.at])
		}
		dst = append(dst, s.body)
		prev = s.at
	}
	if len(e.buf) > prev {
		dst = append(dst, e.buf[prev:])
	}
	return dst
}

// Len returns the number of encoded bytes so far, gathered bodies included.
func (e *Encoder) Len() int {
	n := len(e.buf)
	for _, s := range e.segs {
		n += len(s.body)
	}
	return n
}

// Reset discards the buffer contents and gathered segments, retaining
// capacity.
func (e *Encoder) Reset() {
	clear(e.segs) // drop references to the previous message's bodies
	e.buf, e.segs = e.buf[:0], e.segs[:0]
}

// Uint32 encodes a 32-bit unsigned integer.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// Int32 encodes a 32-bit signed integer.
func (e *Encoder) Int32(v int32) { e.Uint32(uint32(v)) }

// Uint64 encodes a 64-bit unsigned (hyper) integer.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Int64 encodes a 64-bit signed (hyper) integer.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Bool encodes an XDR boolean.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint32(1)
	} else {
		e.Uint32(0)
	}
}

// FixedOpaque encodes bytes with no length word, padded to 4-byte alignment.
func (e *Encoder) FixedOpaque(b []byte) {
	e.buf = append(e.buf, b...)
	for pad := (4 - len(b)%4) % 4; pad > 0; pad-- {
		e.buf = append(e.buf, 0)
	}
}

// Zeros appends n zero bytes (no alignment padding of its own).  Synthetic
// bulk payloads encode through this without materializing a source buffer.
func (e *Encoder) Zeros(n int) {
	if n <= 0 {
		return
	}
	if need := len(e.buf) + n; need > cap(e.buf) {
		grown := make([]byte, len(e.buf), need)
		copy(grown, e.buf)
		e.buf = grown
	}
	zeroFrom := len(e.buf)
	e.buf = e.buf[:zeroFrom+n]
	clear(e.buf[zeroFrom:])
}

// Opaque encodes a variable-length opaque: length word + padded bytes.  A
// gathering encoder references bodies of at least GatherMin bytes instead
// of copying them.
func (e *Encoder) Opaque(b []byte) {
	if len(b) > MaxOpaque {
		panic(fmt.Sprintf("xdr: opaque of %d bytes exceeds limit", len(b)))
	}
	e.Uint32(uint32(len(b)))
	if !e.gather || len(b) < GatherMin {
		e.FixedOpaque(b)
		return
	}
	e.segs = append(e.segs, segment{at: len(e.buf), body: b})
	for pad := (4 - len(b)%4) % 4; pad > 0; pad-- {
		e.buf = append(e.buf, 0)
	}
}

// String encodes an XDR string.
func (e *Encoder) String(s string) { e.Opaque([]byte(s)) }

// Marshal appends m's encoding.
func (e *Encoder) Marshal(m Marshaler) { m.MarshalXDR(e) }

// Owner tracks the lifetime of a decode buffer that borrow-mode decodes
// alias.  A consumer that lets a borrowed reference escape the decode call
// must Retain the owner first and Release it once the reference is dead;
// the owner frees (or recycles) the underlying buffer when the last
// reference drops.
type Owner interface {
	Retain()
	Release()
}

// Decoder consumes XDR-encoded data from a buffer.
type Decoder struct {
	buf      []byte
	off      int
	owner    Owner
	borrowed int
}

// NewDecoder returns a decoder over b (which is not copied).
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// EnableBorrow switches the decoder into borrow mode: OpaqueRef (and any
// Unmarshaler built on it, like payload.Payload) returns slices aliasing
// the decode buffer instead of copies.  o owns that buffer; it must not be
// recycled until every retained borrow has been released.
//
// Lifetime rules:
//
//   - A borrowed slice is valid only while the decode buffer is alive.
//   - Decoding a message does not itself retain o; each borrow that
//     escapes the decode (is stored in the message rather than consumed
//     on the spot) must Retain o and Release it exactly once when done.
//   - After the last Release, reading a borrowed slice is a
//     use-after-free of pooled memory (tests catch this with the buffer
//     pool's poison-on-put hook).
func (d *Decoder) EnableBorrow(o Owner) { d.owner = o }

// BorrowOwner returns the owner installed by EnableBorrow, or nil when the
// decoder copies (the default).
func (d *Decoder) BorrowOwner() Owner { return d.owner }

// Borrowed reports how many opaques were decoded by reference (borrow mode
// only); transports feed it into the rpc_buf_borrowed_total counter.
func (d *Decoder) Borrowed() int { return d.borrowed }

// Remaining reports the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	if d.Remaining() < 4 {
		return 0, ErrShortBuffer
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

// Int32 decodes a 32-bit signed integer.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 decodes a 64-bit unsigned integer.
func (d *Decoder) Uint64() (uint64, error) {
	if d.Remaining() < 8 {
		return 0, ErrShortBuffer
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

// Int64 decodes a 64-bit signed integer.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Bool decodes an XDR boolean; any nonzero word is true.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	return v != 0, err
}

// FixedOpaque decodes n bytes plus alignment padding, returning a copy.
func (d *Decoder) FixedOpaque(n int) ([]byte, error) {
	if n < 0 || n > MaxOpaque {
		return nil, ErrTooLong
	}
	padded := n + (4-n%4)%4
	if d.Remaining() < padded {
		return nil, ErrShortBuffer
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:])
	d.off += padded
	return out, nil
}

// Opaque decodes a variable-length opaque.
func (d *Decoder) Opaque() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > MaxOpaque {
		return nil, ErrTooLong
	}
	return d.FixedOpaque(int(n))
}

// OpaqueRef is a decoded variable-length opaque.  When Borrowed is set,
// Bytes aliases the decoder's buffer and is subject to the lifetime rules
// documented on EnableBorrow; otherwise Bytes is an ordinary copy.
type OpaqueRef struct {
	Bytes    []byte
	Borrowed bool
}

// OpaqueRef decodes a variable-length opaque without copying when borrow
// mode is enabled (EnableBorrow); outside borrow mode it behaves exactly
// like Opaque.  The returned slice's capacity is clipped to its length so
// appends by a careless consumer cannot scribble over the rest of the
// frame.
func (d *Decoder) OpaqueRef() (OpaqueRef, error) {
	if d.owner == nil {
		b, err := d.Opaque()
		return OpaqueRef{Bytes: b}, err
	}
	n32, err := d.Uint32()
	if err != nil {
		return OpaqueRef{}, err
	}
	if n32 > MaxOpaque {
		return OpaqueRef{}, ErrTooLong
	}
	n := int(n32)
	padded := n + (4-n%4)%4
	if d.Remaining() < padded {
		return OpaqueRef{}, ErrShortBuffer
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += padded
	d.borrowed++
	return OpaqueRef{Bytes: b, Borrowed: true}, nil
}

// String decodes an XDR string.
func (d *Decoder) String() (string, error) {
	b, err := d.Opaque()
	return string(b), err
}

// Unmarshal decodes into u.
func (d *Decoder) Unmarshal(u Unmarshaler) error { return u.UnmarshalXDR(d) }

// SizeUint32 etc. give encoded sizes for message-size accounting without
// building a buffer.
const (
	SizeUint32 = 4
	SizeUint64 = 8
	SizeBool   = 4
)

// SizeOpaque returns the encoded size of a variable opaque of n bytes.
func SizeOpaque(n int) int { return 4 + n + (4-n%4)%4 }

// SizeString returns the encoded size of s.
func SizeString(s string) int { return SizeOpaque(len(s)) }

// Marshal encodes m into a fresh byte slice.
func Marshal(m Marshaler) []byte {
	e := NewEncoder()
	m.MarshalXDR(e)
	return e.Bytes()
}

// Unmarshal decodes b into u, requiring full consumption of the buffer.
func Unmarshal(b []byte, u Unmarshaler) error {
	d := NewDecoder(b)
	if err := u.UnmarshalXDR(d); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("xdr: %d trailing bytes after decode of %T", d.Remaining(), u)
	}
	return nil
}

// Float64 encodes an IEEE-754 double (used by workload trace files).
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Float64 decodes an IEEE-754 double.
func (d *Decoder) Float64() (float64, error) {
	v, err := d.Uint64()
	return math.Float64frombits(v), err
}
