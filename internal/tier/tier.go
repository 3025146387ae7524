// Package tier implements the PFS-backed cold tier of the staging
// service: cold object versions are demoted ("spilled") out of staging
// RAM into CRC-checksummed records on checkpoint storage and promoted
// back transparently when a replaying reader asks for them.
//
// Crash atomicity follows the checkpoint design of internal/ckpt. Each
// spilled object is sealed with the same record framing
// (ckpt.SealRecord) and written in two generations, so a single torn
// write or bit flip never loses the record. The set of spilled entries
// lives in a manifest committed by write-temp + rename + marker flip.
// Spills are group-committed: one Spill writes the records of every
// object of a version, then commits the manifest once. The caller drops
// the RAM copy only after that commit, so a crash mid-spill never
// leaves a version half-moved. Records not reachable from the committed
// manifest are orphans and are garbage-collected on attach.
//
// pfs.DirStore fsyncs each write and rename, so every step is durable.
// Bodies are binary (internal/codec): a record is an entry header then
// the raw payload; a manifest is a format byte, the next key and the
// entry headers. A CRC-valid manifest that does not decode degrades the
// tier with ErrManifestFormat and keeps every record.
//
// When the backend fails (ENOSPC, I/O errors) the tier degrades to
// RAM-only mode: spills return the typed *DegradedError and the
// staging server falls back to its normal shed path. A later Scrub
// probes the backend and re-arms the tier, and also walks every
// record, heals single-generation corruption from the surviving twin,
// and reports anything unrecoverable — corruption is always detected
// by CRC, never served as valid data.
package tier

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"sync"

	"gospaces/internal/ckpt"
	"gospaces/internal/codec"
	"gospaces/internal/domain"
	"gospaces/internal/store"
)

// Backend is the slice of a PFS store the tier needs. Both *pfs.Store
// and *pfs.DirStore satisfy it.
type Backend interface {
	Write(name string, data []byte) error
	Read(name string) ([]byte, bool)
	Rename(old, new string) error
	List(prefix string) []string
	Delete(name string)
}

// DegradedError is returned when the cold tier is unavailable and the
// server is running RAM-only. It wraps the backend fault that tripped
// degradation, when one is known.
type DegradedError struct {
	Cause error
}

func (e *DegradedError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("tier: degraded (RAM-only): %v", e.Cause)
	}
	return "tier: degraded (RAM-only): cold tier unavailable"
}

func (e *DegradedError) Unwrap() error { return e.Cause }

// ErrTierDegraded is the bare degraded sentinel (no specific cause).
var ErrTierDegraded = &DegradedError{}

// ErrManifestFormat is the degradation cause when a manifest passes
// its CRC but does not decode (a foreign or older format). The tier
// keeps every record and stays degraded; Scrub does not re-arm it.
var ErrManifestFormat = errors.New("tier: unreadable manifest format")

// manifestFormat is the first byte of every manifest body.
const manifestFormat byte = 1

// Entry is one spilled object record in the manifest.
type Entry struct {
	Key      uint64 // record id; records live at <prefix>o/<key>/g{0,1}
	Name     string
	Version  int64
	BBox     domain.BBox
	ElemSize int
	CRC      uint32 // Castagnoli CRC of the payload (store.Object.CRC)
	Bytes    int64
}

func appendEntry(buf []byte, e *Entry) []byte {
	buf = codec.AppendUvarint(buf, e.Key)
	buf = codec.AppendString(buf, e.Name)
	buf = codec.AppendVarint(buf, e.Version)
	buf = e.BBox.AppendBinary(buf)
	buf = codec.AppendUvarint(buf, uint64(e.ElemSize))
	buf = codec.AppendUvarint(buf, uint64(e.CRC))
	return codec.AppendVarint(buf, e.Bytes)
}

func decodeEntry(r *codec.Reader) (e Entry, err error) {
	e.Key, e.Name, e.Version = r.Uvarint(), r.String(), r.Varint()
	e.BBox, err = domain.DecodeBBox(r)
	e.ElemSize = r.Int()
	crc := r.Uvarint()
	e.Bytes = r.Varint()
	if err != nil || r.Err() != nil || crc > math.MaxUint32 || e.Bytes < 0 {
		return Entry{}, codec.ErrCorrupt
	}
	e.CRC = uint32(crc)
	return e, nil
}

// appendManifest encodes a manifest body.
func appendManifest(buf []byte, nextKey uint64, entries []*Entry) []byte {
	buf = append(buf, manifestFormat)
	buf = codec.AppendUvarint(buf, nextKey)
	buf = codec.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = appendEntry(buf, e)
	}
	return buf
}

// decodeManifest parses a body written by appendManifest. A count
// larger than the remaining bytes is rejected before any allocation.
func decodeManifest(body []byte) (nextKey uint64, entries []Entry, err error) {
	if len(body) == 0 || body[0] != manifestFormat {
		return 0, nil, errors.New("unknown format byte")
	}
	r := codec.NewReader(body[1:])
	nextKey = r.Uvarint()
	n := r.Uvarint()
	if r.Err() != nil || n > uint64(r.Len()) {
		return 0, nil, codec.ErrCorrupt
	}
	entries = make([]Entry, n)
	for i := range entries {
		if entries[i], err = decodeEntry(r); err != nil {
			return 0, nil, err
		}
	}
	if r.Len() != 0 {
		return 0, nil, codec.ErrCorrupt
	}
	return nextKey, entries, nil
}

// decodeRecord splits a spill record body into its entry header and
// payload. The payload aliases body.
func decodeRecord(body []byte) (Entry, []byte, error) {
	r := codec.NewReader(body)
	e, err := decodeEntry(r)
	if data := r.Rest(); err == nil && int64(len(data)) == e.Bytes {
		return e, data, nil
	}
	return Entry{}, nil, codec.ErrCorrupt
}

// Stats is a point-in-time tier counter snapshot.
type Stats struct {
	Entries        int
	Bytes          int64
	Spills         int64
	SpillBytes     int64
	Promotes       int64
	PromoteBytes   int64
	ScrubChecked   int64
	ScrubHealed    int64
	ScrubLost      int64
	Degraded       bool
	DegradedEvents int64
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	Checked int64 // generation records verified
	Healed  int64 // corrupt generations rewritten from the valid twin
	Lost    int64 // entries with no valid generation (detected, dropped)
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Tier is one server's cold tier. Safe for concurrent use.
type Tier struct {
	mu      sync.Mutex
	be      Backend
	prefix  string
	byName  map[string]map[int64][]*Entry
	nextKey uint64
	mseq    uint64
	mgen    int // committed manifest generation, -1 when none

	degraded       bool
	degradedCause  error
	spills         int64
	spillBytes     int64
	promotes       int64
	promoteBytes   int64
	scrubChecked   int64
	scrubHealed    int64
	scrubLost      int64
	degradedEvents int64
	entries        int
	bytes          int64
}

// New attaches a tier rooted at <id> on be, recovering the committed
// manifest (if any) and garbage-collecting orphaned records left by a
// crash between record writes and the manifest commit.
func New(be Backend, id string) *Tier {
	t := &Tier{
		be:     be,
		prefix: fmt.Sprintf("tier/%s/", id),
		byName: make(map[string]map[int64][]*Entry),
		mgen:   -1,
	}
	t.load()
	return t
}

func (t *Tier) recKey(key uint64, gen int) string {
	return fmt.Sprintf("%so/%d/g%d", t.prefix, key, gen)
}
func (t *Tier) manKey(gen int) string { return fmt.Sprintf("%smanifest/g%d", t.prefix, gen) }
func (t *Tier) manCur() string        { return t.prefix + "manifest/cur" }
func (t *Tier) manTmp() string        { return t.prefix + "manifest.tmp" }

// load recovers manifest state on attach. Caller is the constructor;
// no lock needed yet.
func (t *Tier) load() {
	order, marker := []int{0, 1}, -1
	if cur, ok := t.be.Read(t.manCur()); ok && len(cur) == 1 && cur[0] <= 1 {
		marker = int(cur[0])
		order = []int{marker, 1 - marker}
	}
	var seqs [2]uint64
	var bodies [2][]byte
	var valid [2]bool
	for g := 0; g < 2; g++ {
		if rec, ok := t.be.Read(t.manKey(g)); ok {
			seqs[g], bodies[g], valid[g] = ckpt.OpenRecord(rec)
		}
	}
	if !valid[order[0]] && valid[order[1]] {
		order[0], order[1] = order[1], order[0]
	} else if valid[0] && valid[1] && seqs[order[1]] > seqs[order[0]] && marker < 0 {
		order[0], order[1] = order[1], order[0]
	}
	var entries []Entry
	var decodeErr error
	for _, g := range order {
		if !valid[g] {
			continue
		}
		nextKey, es, err := decodeManifest(bodies[g])
		if err != nil {
			decodeErr = err
			continue
		}
		t.nextKey, entries, t.mseq, t.mgen = nextKey, es, seqs[g], g
		break
	}
	if t.mgen < 0 && decodeErr != nil {
		// A sealed manifest exists but cannot be read: keep every
		// record rather than collect them all as orphans.
		t.degrade(fmt.Errorf("%w: %w", ErrManifestFormat, decodeErr))
		return
	}
	live := make(map[string]bool)
	for i := range entries {
		t.index(&entries[i])
		live[t.recKey(entries[i].Key, 0)] = true
		live[t.recKey(entries[i].Key, 1)] = true
	}
	// Orphan GC: records the committed manifest doesn't reach were
	// abandoned mid-spill (or mid-promote) by a crash.
	for _, name := range t.be.List(t.prefix + "o/") {
		if !live[name] {
			t.be.Delete(name)
		}
	}
	t.be.Delete(t.manTmp())
}

func (t *Tier) index(e *Entry) {
	vers, ok := t.byName[e.Name]
	if !ok {
		vers = make(map[int64][]*Entry)
		t.byName[e.Name] = vers
	}
	vers[e.Version] = append(vers[e.Version], e)
	t.entries++
	t.bytes += e.Bytes
	if e.Key >= t.nextKey {
		t.nextKey = e.Key + 1
	}
}

func (t *Tier) unindex(e *Entry) {
	vers := t.byName[e.Name]
	list := vers[e.Version]
	for i, x := range list {
		if x.Key == e.Key {
			vers[e.Version] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(vers[e.Version]) == 0 {
		delete(vers, e.Version)
	}
	if len(vers) == 0 {
		delete(t.byName, e.Name)
	}
	t.entries--
	t.bytes -= e.Bytes
}

// commitManifest persists the in-memory entry set: seal, write to the
// temp name, rename into the non-committed generation, flip the
// marker. Caller holds t.mu.
func (t *Tier) commitManifest() error {
	body := appendManifest(nil, t.nextKey, t.sorted())
	t.mseq++
	target := 0
	if t.mgen == 0 {
		target = 1
	}
	if err := t.be.Write(t.manTmp(), ckpt.SealRecord(t.mseq, body)); err != nil {
		t.mseq--
		return err
	}
	if err := t.be.Rename(t.manTmp(), t.manKey(target)); err != nil {
		t.mseq--
		return err
	}
	if err := t.be.Write(t.manCur(), []byte{byte(target)}); err != nil {
		// The rename landed but the marker didn't: the old generation
		// is still the committed one. Roll back our view.
		t.mseq--
		return err
	}
	t.mgen = target
	return nil
}

// sorted returns every indexed entry in key order. Caller holds t.mu.
func (t *Tier) sorted() []*Entry {
	all := make([]*Entry, 0, t.entries)
	for _, vers := range t.byName {
		for _, list := range vers {
			all = append(all, list...)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	return all
}

func (t *Tier) degrade(cause error) *DegradedError {
	t.degraded = true
	t.degradedCause = cause
	t.degradedEvents++
	return &DegradedError{Cause: cause}
}

// Spill demotes a batch of resident objects (the logged objects of one
// version) with a single manifest commit. On success the caller may
// drop the RAM copies. A backend fault undoes the whole batch, degrades
// the tier and returns *DegradedError; nothing of it is committed.
func (t *Tier) Spill(objs ...*store.Object) error {
	for _, o := range objs {
		if o.Data == nil {
			return fmt.Errorf("tier: refusing to spill metadata-only object %s@%d", o.Name, o.Version)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.degraded {
		return &DegradedError{Cause: t.degradedCause}
	}
	batch := make([]*Entry, 0, len(objs))
	var body []byte
	var err error
	for _, o := range objs {
		e := &Entry{
			Key:      t.nextKey,
			Name:     o.Name,
			Version:  o.Version,
			BBox:     o.BBox,
			ElemSize: o.ElemSize,
			CRC:      o.CRC,
			Bytes:    int64(len(o.Data)),
		}
		t.index(e)
		batch = append(batch, e)
		body = append(appendEntry(body[:0], e), o.Data...)
		rec := ckpt.SealRecord(e.Key, body)
		for g := 0; g < 2 && err == nil; g++ {
			err = t.be.Write(t.recKey(e.Key, g), rec)
		}
		if err != nil {
			break
		}
	}
	if err == nil {
		err = t.commitManifest()
	}
	if err != nil {
		for _, e := range batch {
			t.unindex(e)
			t.be.Delete(t.recKey(e.Key, 0))
			t.be.Delete(t.recKey(e.Key, 1))
		}
		return t.degrade(err)
	}
	for _, e := range batch {
		t.spills++
		t.spillBytes += e.Bytes
	}
	return nil
}

// Has reports whether any entry exists for (name, version).
func (t *Tier) Has(name string, version int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byName[name][version]) > 0
}

// HasName reports whether any version of name is spilled.
func (t *Tier) HasName(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byName[name]) > 0
}

// Versions returns the ascending spilled versions of name.
func (t *Tier) Versions(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	for v := range t.byName[name] {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// readEntry reads and verifies one entry, trying the committed
// generation order. Caller holds t.mu.
func (t *Tier) readEntry(e *Entry) (*store.Object, bool) {
	for g := 0; g < 2; g++ {
		rec, ok := t.be.Read(t.recKey(e.Key, g))
		if !ok {
			continue
		}
		seq, body, ok := ckpt.OpenRecord(rec)
		if !ok || seq != e.Key {
			continue
		}
		// The payload aliases rec, the backend's own copy.
		hdr, data, err := decodeRecord(body)
		if err != nil || hdr.Name != e.Name || hdr.Version != e.Version {
			continue
		}
		if crc32.Checksum(data, crcTable) != hdr.CRC {
			continue
		}
		return &store.Object{
			Name:     hdr.Name,
			Version:  hdr.Version,
			BBox:     hdr.BBox,
			ElemSize: hdr.ElemSize,
			Data:     data,
			CRC:      hdr.CRC,
			Logged:   true,
		}, true
	}
	return nil, false
}

// Promote reads back every spilled object of (name, version), removes
// the entries from the manifest, and returns the objects for
// re-insertion into staging RAM. Entries whose both generations fail
// verification are dropped and counted lost — corruption is detected,
// never returned as data.
func (t *Tier) Promote(name string, version int64) ([]*store.Object, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	list := t.byName[name][version]
	if len(list) == 0 {
		return nil, nil
	}
	var objs []*store.Object
	var promoted []*Entry
	for _, e := range append([]*Entry(nil), list...) {
		o, ok := t.readEntry(e)
		if !ok {
			t.scrubLost++
			t.unindex(e)
			continue
		}
		objs = append(objs, o)
		promoted = append(promoted, e)
	}
	for _, e := range promoted {
		t.unindex(e)
	}
	// Commit the manifest without the promoted entries first; record
	// deletion after the commit at worst leaves orphans for the next
	// attach to collect.
	if err := t.commitManifest(); err != nil {
		// The tier copy is still committed; the caller re-inserts the
		// data into RAM, which is safe (promote is idempotent), but
		// the backend is misbehaving: degrade.
		for _, e := range promoted {
			t.index(e)
		}
		return objs, t.degrade(err)
	}
	for _, e := range promoted {
		t.be.Delete(t.recKey(e.Key, 0))
		t.be.Delete(t.recKey(e.Key, 1))
	}
	for _, o := range objs {
		t.promotes++
		t.promoteBytes += int64(len(o.Data))
	}
	return objs, nil
}

// DropBelow discards spilled versions of name strictly older than
// keep — checkpoint GC extended to the cold tier. It returns payload
// bytes freed.
func (t *Tier) DropBelow(name string, keep int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var drop []*Entry
	for v, list := range t.byName[name] {
		if v < keep {
			drop = append(drop, list...)
		}
	}
	if len(drop) == 0 {
		return 0
	}
	var freed int64
	for _, e := range drop {
		t.unindex(e)
		freed += e.Bytes
	}
	if err := t.commitManifest(); err != nil {
		for _, e := range drop {
			t.index(e)
		}
		t.degrade(err)
		return 0
	}
	for _, e := range drop {
		t.be.Delete(t.recKey(e.Key, 0))
		t.be.Delete(t.recKey(e.Key, 1))
	}
	return freed
}

// Reset discards all tier state (records, manifest, degradation) —
// used when a promoted spare installs a dead server's replicated
// state, which supersedes anything the local tier held.
func (t *Tier) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, name := range t.be.List(t.prefix) {
		t.be.Delete(name)
	}
	t.byName = make(map[string]map[int64][]*Entry)
	t.entries = 0
	t.bytes = 0
	t.mgen = -1
	t.mseq = 0
	t.degraded = false
	t.degradedCause = nil
}

// Scrub verifies the CRC of every generation of every spilled record.
// A corrupt generation with a valid twin is rewritten from the twin
// ("re-replicated"); an entry with no valid generation is dropped and
// counted lost. A successful pass over a degraded tier re-arms it —
// scrub doubles as the repair probe.
func (t *Tier) Scrub() ScrubReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	var rep ScrubReport
	healthy := true
	var lost []*Entry
	for _, e := range t.sorted() {
		var good []byte
		var bad []int
		for g := 0; g < 2; g++ {
			rec, ok := t.be.Read(t.recKey(e.Key, g))
			rep.Checked++
			if !ok {
				bad = append(bad, g)
				continue
			}
			if seq, _, vok := ckpt.OpenRecord(rec); !vok || seq != e.Key {
				bad = append(bad, g)
				continue
			}
			if good == nil {
				good = rec
			}
		}
		if good == nil {
			rep.Lost++
			lost = append(lost, e)
			continue
		}
		for _, g := range bad {
			if err := t.be.Write(t.recKey(e.Key, g), good); err != nil {
				healthy = false
				continue
			}
			rep.Healed++
		}
	}
	for _, e := range lost {
		t.unindex(e)
	}
	if len(lost) > 0 {
		if err := t.commitManifest(); err != nil {
			healthy = false
		} else {
			for _, e := range lost {
				t.be.Delete(t.recKey(e.Key, 0))
				t.be.Delete(t.recKey(e.Key, 1))
			}
		}
	}
	if healthy && t.degraded && !errors.Is(t.degradedCause, ErrManifestFormat) {
		// Probe the backend before re-arming. An unreadable manifest
		// is not a backend fault; re-arming would let the next commit
		// orphan every record it could not read.
		if err := t.be.Write(t.prefix+"probe", []byte{1}); err == nil {
			t.be.Delete(t.prefix + "probe")
			t.degraded = false
			t.degradedCause = nil
		}
	}
	t.scrubChecked += rep.Checked
	t.scrubHealed += rep.Healed
	t.scrubLost += rep.Lost
	return rep
}

// Degraded reports whether the tier is in RAM-only mode.
func (t *Tier) Degraded() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.degraded
}

// Stats returns a counter snapshot.
func (t *Tier) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{
		Entries:        t.entries,
		Bytes:          t.bytes,
		Spills:         t.spills,
		SpillBytes:     t.spillBytes,
		Promotes:       t.promotes,
		PromoteBytes:   t.promoteBytes,
		ScrubChecked:   t.scrubChecked,
		ScrubHealed:    t.scrubHealed,
		ScrubLost:      t.scrubLost,
		Degraded:       t.degraded,
		DegradedEvents: t.degradedEvents,
	}
}
