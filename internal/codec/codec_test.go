package codec

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// appendAll encodes one value of every helper, in a fixed order.
func appendAll(buf []byte, u uint64, v int64, b []byte, s string, ok bool) []byte {
	buf = AppendUvarint(buf, u)
	buf = AppendVarint(buf, v)
	buf = AppendBytes(buf, b)
	buf = AppendString(buf, s)
	return AppendBool(buf, ok)
}

// readAll decodes what appendAll wrote.
func readAll(r *Reader) (u uint64, v int64, b []byte, s string, ok bool) {
	return r.Uvarint(), r.Varint(), r.Bytes(), r.String(), r.Bool()
}

func TestHelpersRoundTrip(t *testing.T) {
	cases := []struct {
		u  uint64
		v  int64
		b  []byte
		s  string
		ok bool
	}{
		{0, 0, nil, "", false},
		{1, -1, []byte{0}, "x", true},
		{math.MaxUint64, math.MinInt64, bytes.Repeat([]byte{0xA5}, 300), "sim/field", true},
		{1 << 40, math.MaxInt64, []byte("payload"), string([]byte{0, 0xff}), false},
	}
	for _, c := range cases {
		data := appendAll([]byte("prefix"), c.u, c.v, c.b, c.s, c.ok)[len("prefix"):]
		for _, r := range []*Reader{NewReader(data), NewAliasReader(data)} {
			u, v, b, s, ok := readAll(r)
			if err := r.Err(); err != nil || r.Len() != 0 {
				t.Fatalf("%+v: err=%v, %d bytes left", c, err, r.Len())
			}
			if u != c.u || v != c.v || !bytes.Equal(b, c.b) || s != c.s || ok != c.ok {
				t.Fatalf("round trip %+v -> %d %d %q %q %v", c, u, v, b, s, ok)
			}
		}
	}
}

// Bytes copies by default and aliases the input in alias mode, and an
// empty field decodes as nil in both.
func TestBytesAliasing(t *testing.T) {
	data := AppendBytes(AppendBytes(nil, []byte("abc")), nil)
	cp, al := NewReader(data), NewAliasReader(data)
	c, a := cp.Bytes(), al.Bytes()
	if &c[0] == &data[1] || &a[0] != &data[1] {
		t.Fatal("copy reader aliased, or alias reader copied")
	}
	if cap(a) != len(a) {
		t.Fatal("aliased field can grow into the following bytes")
	}
	if cp.Bytes() != nil || al.Bytes() != nil {
		t.Fatal("empty field did not decode as nil")
	}
	dis := NewAliasReader(data)
	dis.DisableAlias()
	if b := dis.Bytes(); &b[0] == &data[1] {
		t.Fatal("DisableAlias reader still aliases")
	}
}

// The first failure sticks: every later accessor returns the zero
// value, even where the remaining bytes would parse.
func TestReaderErrorsSticky(t *testing.T) {
	// A 5-byte field with 3 bytes left fails without consuming them.
	r := NewReader(append(AppendUvarint(nil, 5), 1, 1, 1))
	if r.Bytes() != nil || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("overrunning field: err=%v", r.Err())
	}
	if r.Uvarint() != 0 || r.Bool() || r.Int() != 0 || r.Varint() != 0 || r.String() != "" || r.Rest() != nil {
		t.Fatal("accessor returned data after a decode error")
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("error not sticky: %v", r.Err())
	}
}

func TestReaderBounds(t *testing.T) {
	for _, c := range []struct {
		name string
		data []byte
		read func(*Reader) any
	}{
		{"bytes past end", append(AppendUvarint(nil, 5), "abc"...), func(r *Reader) any { return r.Bytes() }},
		{"huge length", AppendUvarint(nil, math.MaxUint64), func(r *Reader) any { return r.Bytes() }},
		{"string past end", append(AppendUvarint(nil, 1<<40), 'x'), func(r *Reader) any { return r.String() }},
		{"empty bool", nil, func(r *Reader) any { return r.Bool() }},
		{"int overflow", AppendUvarint(nil, math.MaxUint64), func(r *Reader) any { return r.Int() }},
	} {
		r := NewReader(c.data)
		c.read(r)
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Fatalf("%s: err=%v", c.name, r.Err())
		}
	}
}

// pair is a registered fast-path message for the registry tests.
type pair struct {
	N    uint64
	Body []byte
}

const pairID = 0xFFF0

func (p pair) CodecID() uint16 { return pairID }
func (p pair) AppendTo(buf []byte) ([]byte, error) {
	return AppendBytes(AppendUvarint(buf, p.N), p.Body), nil
}
func (p pair) AppendHeadTo(buf []byte) (head, tail []byte, err error) {
	buf = AppendUvarint(AppendUvarint(buf, p.N), uint64(len(p.Body)))
	return buf, p.Body, nil
}

type pairDec struct{ v pair }

func (d *pairDec) DecodeFrom(r *Reader) error {
	d.v.N, d.v.Body = r.Uvarint(), r.Bytes()
	if r.Err() == nil && r.Len() != 0 {
		return ErrCorrupt
	}
	return r.Err()
}
func (d *pairDec) Value() any { return d.v }

func init() { Register(pairID, func() Decoder { return &pairDec{} }) }

func TestMarshalRoundTrip(t *testing.T) {
	in := pair{N: 42, Body: []byte("bulk payload")}
	buf, ok := Marshal([]byte("x"), in)
	if !ok {
		t.Fatal("Marshal declined a registered Appender")
	}
	head, tail, ok := MarshalBulk([]byte("x"), in)
	if !ok || !bytes.Equal(append(head, tail...), buf) {
		t.Fatal("MarshalBulk head+tail differs from Marshal")
	}
	for _, dec := range []func([]byte) (any, error){Unmarshal, UnmarshalAlias} {
		out, err := dec(buf[1:])
		if err != nil || out.(pair).N != in.N || !bytes.Equal(out.(pair).Body, in.Body) {
			t.Fatalf("decode: %v %+v", err, out)
		}
	}
	if _, ok := Marshal(nil, struct{}{}); ok {
		t.Fatal("Marshal accepted a type without a fast path")
	}
	if _, err := Unmarshal([]byte{0xFF, 0xFE}); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("unknown id: %v", err)
	}
	if _, err := Unmarshal([]byte{0xFF}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short id: %v", err)
	}
}

func TestBufPool(t *testing.T) {
	for _, n := range []int{16, bigBufCutoff, maxPooledBuf + 1} {
		b := append(GetBuf(), make([]byte, n)...)
		PutBuf(b)
		if got := GetBuf(); len(got) != 0 {
			t.Fatalf("GetBuf after PutBuf(%d) returned %d bytes", n, len(got))
		}
	}
}

// FuzzReader decodes arbitrary bytes as a sequence of fields chosen by
// the fuzzer: no accessor panics, Bytes and String never return more
// than the unread input, an error is sticky, and the reader only ever
// consumes input.
func FuzzReader(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4}, appendAll(nil, 7, -7, []byte("ab"), "cd", true))
	f.Add([]byte{2, 2, 2}, AppendUvarint(nil, math.MaxUint64))
	f.Add([]byte{3}, append(AppendUvarint(nil, 1<<40), 'x'))
	f.Add([]byte{5, 6}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		for _, alias := range []bool{false, true} {
			r := NewReader(data)
			if alias {
				r = NewAliasReader(data)
			}
			for _, op := range ops {
				before, failed := r.Len(), r.Err() != nil
				var n int // bytes (or magnitude) the accessor returned
				switch op % 7 {
				case 0:
					n = int(min(r.Uvarint(), 1))
				case 1:
					n = int(min(max(r.Varint(), -1), 1))
				case 2:
					n = len(r.Bytes())
				case 3:
					n = len(r.String())
				case 4:
					if r.Bool() {
						n = 1
					}
				case 5:
					if n = r.Int(); n < 0 {
						t.Fatalf("Int returned %d", n)
					}
				case 6:
					if n = len(r.Rest()); n != before && r.Err() == nil {
						t.Fatalf("Rest returned %d of %d bytes", n, before)
					}
				}
				if (op%7 == 2 || op%7 == 3) && n > before {
					t.Fatalf("op %d returned %d bytes with %d unread", op%7, n, before)
				}
				if r.Len() > before {
					t.Fatal("reader grew")
				}
				if failed && (r.Err() == nil || n != 0) {
					t.Fatalf("op %d after a decode error: err=%v value %d", op%7, r.Err(), n)
				}
			}
		}
	})
}
