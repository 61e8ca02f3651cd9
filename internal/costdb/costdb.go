// Package costdb is the durable tier beneath the in-memory cost caches:
// a versioned, checksummed binary snapshot of a full (backend, graph
// signature) → cost-vector store, an append-only write-ahead log of cost
// inserts, and a Persistent wrapper that composes both under any
// engine.CostCache. The paper's economy — price a shape once, reuse it
// across every budget and request — stops at the process boundary as
// long as the store is memory-only; costdb extends it across restarts
// (warm boot from snapshot+WAL) and across machines (the snapshot format
// streams over HTTP via the vitdynd export/import endpoints), so a fleet
// of daemons shares costed shapes without a coordination service.
//
// Layout: a store directory holds two files, snapshot.vcdb (the last
// compaction, CRC-checked as a whole) and wal.vcdb (per-record CRC;
// inserts since that compaction). Writers append to the WAL on every
// genuinely computed cost and periodically compact the full contents
// into a fresh snapshot via an atomic rename; readers load the snapshot,
// then replay the WAL, truncating a torn tail (the crash-window artifact
// of buffered appends) instead of failing. A corrupt snapshot is
// rejected loudly — silent partial loads would poison every catalog
// served from it.
package costdb

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Entry is one durable cost record: which substrate priced the shape,
// the substrate's cost-model epoch (see engine.BackendEpoch; 0 for
// records predating epochs), the shape's cost-relevant signature, and
// the metric vector the backend produced (1 value for plain backends,
// one per metric for multi-metric ones) — exactly the key/value of
// engine.CostCache.
type Entry struct {
	Backend string
	Epoch   uint64
	Sig     uint64
	Vals    []float64
}

// Validate checks the entry's cost vector: every value finite and
// positive, as every backend produces. A snapshot's checksum proves its
// bytes arrived intact, not that its costs are sane, so imports check
// every entry before any of them is stored.
func (e Entry) Validate() error {
	for i, v := range e.Vals {
		if !(v > 0) || math.IsInf(v, 1) {
			return fmt.Errorf("costdb: entry %q/%016x: cost %d is %v, want finite and positive", e.Backend, e.Sig, i, v)
		}
	}
	return nil
}

// Codec limits: a backend name or metric vector beyond these bounds is
// not something this repository can produce, so a decoded length past
// them means the bytes are garbage — fail before allocating.
const (
	maxBackendLen = 4096
	maxVals       = 4096
)

// encodedSize returns the serialized byte length of an entry payload.
func encodedSize(e Entry) int {
	return 2 + len(e.Backend) + 8 + 8 + 2 + 8*len(e.Vals)
}

// appendEntry serializes e onto buf (little-endian: backend length+bytes,
// signature, epoch, value count, IEEE-754 values) — the shared payload
// encoding of snapshot entries and WAL records.
func appendEntry(buf []byte, e Entry) ([]byte, error) {
	if len(e.Backend) == 0 || len(e.Backend) > maxBackendLen {
		return nil, fmt.Errorf("costdb: backend name length %d outside 1..%d", len(e.Backend), maxBackendLen)
	}
	if len(e.Vals) == 0 || len(e.Vals) > maxVals {
		return nil, fmt.Errorf("costdb: cost vector length %d outside 1..%d (backend %q)", len(e.Vals), maxVals, e.Backend)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.Backend)))
	buf = append(buf, e.Backend...)
	buf = binary.LittleEndian.AppendUint64(buf, e.Sig)
	buf = binary.LittleEndian.AppendUint64(buf, e.Epoch)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.Vals)))
	for _, v := range e.Vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf, nil
}

// decodeEntry parses one entry payload from the front of b, returning
// the bytes consumed. Errors distinguish "short" (more bytes could
// complete it — a torn tail, recoverable for WAL replay) from structural
// garbage via errShortEntry.
var errShortEntry = fmt.Errorf("costdb: truncated entry")

func decodeEntry(b []byte) (Entry, int, error) {
	if len(b) < 2 {
		return Entry{}, 0, errShortEntry
	}
	nb := int(binary.LittleEndian.Uint16(b))
	if nb == 0 || nb > maxBackendLen {
		return Entry{}, 0, fmt.Errorf("costdb: backend name length %d outside 1..%d", nb, maxBackendLen)
	}
	off := 2
	if len(b) < off+nb+8+8+2 {
		return Entry{}, 0, errShortEntry
	}
	backend := string(b[off : off+nb])
	off += nb
	sig := binary.LittleEndian.Uint64(b[off:])
	off += 8
	epoch := binary.LittleEndian.Uint64(b[off:])
	off += 8
	nv := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if nv == 0 || nv > maxVals {
		return Entry{}, 0, fmt.Errorf("costdb: cost vector length %d outside 1..%d", nv, maxVals)
	}
	if len(b) < off+8*nv {
		return Entry{}, 0, errShortEntry
	}
	vals := make([]float64, nv)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	return Entry{Backend: backend, Epoch: epoch, Sig: sig, Vals: vals}, off, nil
}

// entryKey is the map key form of an entry's identity.
type entryKey struct {
	backend string
	epoch   uint64
	sig     uint64
}
