package tier

import (
	"bytes"
	"hash/crc32"
	"testing"

	"gospaces/internal/codec"
	"gospaces/internal/domain"
)

// fuzzEntry derives an entry from fuzz input so every field, the name
// included, carries arbitrary values.
func fuzzEntry(key uint64, name []byte, version int64) *Entry {
	return &Entry{
		Key:      key,
		Name:     string(name),
		Version:  version,
		BBox:     domain.BBox{NDim: 3, Min: domain.Point{version, 0, int64(key)}, Max: domain.Point{-version, int64(len(name)), int64(key) + 1}},
		ElemSize: len(name) % 9,
		CRC:      crc32.Checksum(name, crcTable),
		Bytes:    int64(len(name)),
	}
}

// FuzzManifestDecode round-trips manifests built from fuzz input and
// throws arbitrary bytes at decodeManifest: it must never panic, must
// reject a count larger than the bytes left, and anything it accepts
// must re-encode to a body that decodes to the same manifest.
func FuzzManifestDecode(f *testing.F) {
	f.Add(uint64(3), int64(1), appendManifest(nil, 3, []*Entry{fuzzEntry(0, []byte("sim/f"), 1), fuzzEntry(2, []byte("ana/g"), 7)}))
	f.Add(uint64(0), int64(-1), appendManifest(nil, 0, nil))
	f.Add(uint64(1), int64(0), []byte{})
	f.Add(uint64(1), int64(0), []byte{manifestFormat + 1, 0, 0})
	f.Add(uint64(1<<63), int64(1<<62), codec.AppendUvarint([]byte{manifestFormat, 9}, 1<<40))
	f.Fuzz(func(t *testing.T, key uint64, version int64, body []byte) {
		in := []*Entry{fuzzEntry(key, body, version), fuzzEntry(key+1, nil, -version)}
		next, out, err := decodeManifest(appendManifest(nil, key+2, in))
		if err != nil || next != key+2 || len(out) != len(in) || out[0] != *in[0] || out[1] != *in[1] {
			t.Fatalf("round trip: err=%v next=%d entries=%+v", err, next, out)
		}

		next, out, err = decodeManifest(body)
		if len(body) > 0 && body[0] == manifestFormat {
			r := codec.NewReader(body[1:])
			r.Uvarint()
			if n := r.Uvarint(); r.Err() == nil && n > uint64(r.Len()) && err == nil {
				t.Fatalf("count %d with %d bytes left accepted", n, r.Len())
			}
		}
		if err != nil {
			return
		}
		ptrs := make([]*Entry, len(out))
		for i := range out {
			ptrs[i] = &out[i]
		}
		next2, out2, err := decodeManifest(appendManifest(nil, next, ptrs))
		if err != nil || next2 != next || len(out2) != len(out) {
			t.Fatalf("re-encoded manifest: err=%v next %d->%d entries %d->%d", err, next, next2, len(out), len(out2))
		}
		for i := range out {
			if out2[i] != out[i] {
				t.Fatalf("entry %d changed on re-encode: %+v -> %+v", i, out[i], out2[i])
			}
		}
	})
}

// FuzzSpillRecordDecode round-trips spill record bodies built from
// fuzz input and throws arbitrary bytes at decodeRecord: it must never
// panic, must reject a length that overruns the body, and anything it
// accepts must return a payload of the header's size that aliases the
// body and re-encodes to the identical body.
func FuzzSpillRecordDecode(f *testing.F) {
	good := fuzzEntry(4, []byte("sim/f"), 2)
	f.Add(uint64(4), int64(2), append(appendEntry(nil, good), "sim/f"...))
	f.Add(uint64(0), int64(0), []byte{})
	f.Add(uint64(1), int64(1), appendEntry(nil, good)) // payload missing
	f.Add(uint64(1), int64(1), codec.AppendUvarint([]byte{4}, 1<<40))
	f.Add(uint64(9), int64(-9), append(appendEntry(nil, good), "sim/f and trailing bytes"...))
	f.Fuzz(func(t *testing.T, key uint64, version int64, body []byte) {
		in := fuzzEntry(key, body, version)
		hdr, data, err := decodeRecord(append(appendEntry(nil, in), body...))
		if err != nil || hdr != *in || !bytes.Equal(data, body) {
			t.Fatalf("round trip: err=%v hdr=%+v", err, hdr)
		}

		hdr, data, err = decodeRecord(body)
		if err != nil {
			return
		}
		if int64(len(data)) != hdr.Bytes || hdr.Bytes > int64(len(body)) {
			t.Fatalf("payload %d bytes, header says %d, body %d", len(data), hdr.Bytes, len(body))
		}
		if len(data) > 0 && &data[0] != &body[len(body)-len(data)] {
			t.Fatal("payload was copied instead of aliasing the record")
		}
		if hdr.ElemSize < 0 || len(hdr.Name) > len(body) || hdr.BBox.NDim > domain.MaxDims {
			t.Fatalf("accepted out-of-range header %+v", hdr)
		}
		hdr2, data2, err := decodeRecord(append(appendEntry(nil, &hdr), data...))
		if err != nil || hdr2 != hdr || !bytes.Equal(data2, data) {
			t.Fatalf("re-encoded record: err=%v %+v -> %+v", err, hdr, hdr2)
		}
	})
}
