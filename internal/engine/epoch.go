package engine

// Backend epochs. A cost cache entry is only as good as the backend
// that priced it: upgrading a latency model or recalibrating an
// accelerator config silently invalidates every cost it ever produced.
// An epoch is a fingerprint stamped per backend — mixed from the
// backend's name, its model-version constant and a process-wide salt —
// that travels with every cached cost (Store keys, costdb
// records, the serving layer's catalog cache). When a backend upgrade
// bumps its version constant, the epoch flips, lookups miss, and stale
// durable entries are retired at the next compaction instead of being
// served as silently wrong catalogs.

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// Epocher is implemented by backends that version their cost model. The
// returned value must change whenever the backend's costs for any graph
// could change — a model-table revision, a recalibration, a formula
// fix. Backends that do not implement Epocher get version 0 and are
// distinguished by name alone.
type Epocher interface {
	Epoch() uint64
}

// Cost-model version constants for the built-in backends. Bump one
// whenever the corresponding model's output could change for any graph;
// the epoch fingerprint flips and every cache tier misses cleanly.
const (
	gpuModelEpoch    = 1 // analytical GPU latency tables
	magnetModelEpoch = 1 // MAGNet accelerator simulation (time/energy)
	flopsModelEpoch  = 1 // GMAC-count proxy
)

// epochSalt perturbs every backend epoch at once. Production leaves it
// 0; tests (and an operator forcing a fleet-wide rebuild) bump it to
// flip all epochs without touching any backend.
var epochSalt atomic.Uint64

// SetEpochSalt installs a process-wide salt mixed into every backend
// epoch. Any change to the salt changes every epoch, so all epoch-keyed
// caches miss and rebuild. Engines compute their epoch at construction,
// so a salt bump takes effect on the next engine (for the server: the
// next request), not mid-sweep.
func SetEpochSalt(salt uint64) { epochSalt.Store(salt) }

// EpochSalt returns the current process-wide epoch salt.
func EpochSalt() uint64 { return epochSalt.Load() }

// epochRegistry remembers the current epoch per backend name, populated
// by BackendEpoch. costdb compaction consults it (via StaleEpoch) to
// retire durable entries whose backend has since moved on.
var epochRegistry sync.Map // backend name → uint64 epoch

// epochMemo caches the fingerprint per backend name so repeat
// BackendEpoch calls — one per served request on the catalog hot path —
// are a lock-free map probe with zero allocations. An entry is only
// reused while the version and salt it hashed still hold.
var epochMemo sync.Map // backend name → epochMemoEntry

type epochMemoEntry struct {
	version, salt, epoch uint64
}

// BackendEpoch fingerprints the backend's current cost-model identity:
// FNV-1a over its Name, mixed with its Epocher version (0 when not
// implemented) and the process-wide salt. The result is never 0 — 0 is
// reserved as "no epoch" in serialized records — and is registered as
// the backend name's current epoch for StaleEpoch. Repeat calls for an
// unchanged (name, version, salt) are allocation-free.
func BackendEpoch(b CostBackend) uint64 {
	if b == nil {
		b = nilBackend{}
	}
	var version uint64
	if ep, ok := b.(Epocher); ok {
		version = ep.Epoch()
	}
	name := b.Name()
	salt := epochSalt.Load()
	if v, ok := epochMemo.Load(name); ok {
		if m := v.(epochMemoEntry); m.version == version && m.salt == salt {
			return m.epoch
		}
	}
	e := epochFor(name, version)
	epochMemo.Store(name, epochMemoEntry{version: version, salt: salt, epoch: e})
	epochRegistry.Store(name, e)
	return e
}

// epochFor is the pure fingerprint: name ⊕ version ⊕ salt through
// FNV-1a, mapped away from 0.
func epochFor(name string, version uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	var buf [16]byte
	put64(buf[0:8], version)
	put64(buf[8:16], epochSalt.Load())
	h.Write(buf[:])
	e := h.Sum64()
	if e == 0 {
		e = 1
	}
	return e
}

func put64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// CurrentEpoch returns the registered epoch for a backend name, if any
// engine (or an explicit BackendEpoch call) has stamped one this
// process.
func CurrentEpoch(name string) (uint64, bool) {
	v, ok := epochRegistry.Load(name)
	if !ok {
		return 0, false
	}
	return v.(uint64), true
}

// StaleEpoch reports whether a recorded (backend name, epoch) pair is
// known-stale: the backend has a registered current epoch and the
// recorded one differs. Unregistered backends are never stale — a
// daemon that has not served that backend yet must not throw away its
// durable costs. Epoch 0 (records predating epochs) is likewise kept.
func StaleEpoch(name string, epoch uint64) bool {
	if epoch == 0 {
		return false
	}
	cur, ok := epochRegistry.Load(name)
	return ok && cur.(uint64) != epoch
}

func (b gpuBackend) Epoch() uint64 { return gpuModelEpoch }

func (magnetBackend) Epoch() uint64 { return magnetModelEpoch }

func (magnetMultiBackend) Epoch() uint64 { return magnetModelEpoch }

func (flopsBackend) Epoch() uint64 { return flopsModelEpoch }
