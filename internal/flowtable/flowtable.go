// Package flowtable is the connection-scale lookup substrate: an
// open-addressed hash table tuned for the per-shard flow state the
// netstack keeps (TCP PCBs keyed by 4-tuple, reassembly state keyed by
// IP ID). The netstack fronts its PCB table with the paper's
// single-entry PCB cache (a field on its transport shard), not with
// anything here.
//
// A Go map served the same role up to a few thousand flows, but §2 of
// the paper puts the PCB lookup squarely on the small-message fast
// path, and at a million concurrent flows a map lookup chases bucket
// pointers across several cache lines before it ever sees a key. The
// Table's layout is built around touching as few lines as possible:
//
//   - Slots are grouped 8 at a time. Each group owns an 8-byte control
//     word — one tag byte per slot, a truncated flow hash with the high
//     bit set (0x00 = empty, 0x01 = tombstone) — so a probe scans 8
//     candidate slots with byte compares in one cache line before any
//     key, value, or pointer is dereferenced. For the netstack's 8-byte
//     flow keys a group's key block is itself exactly one 64-byte line.
//   - Probing is linear over groups with bounded displacement: an
//     insert that cannot place within maxProbeGroups groups triggers a
//     grow instead of probing on, so lookups have a hard locality bound
//     regardless of load history.
//   - Growth is incremental. A grow allocates the larger array and
//     migrates a few groups per subsequent Insert; lookups and deletes
//     consult both arrays until the old one drains. No single operation
//     ever rehashes the whole table, so a resize never stalls the
//     owning shard mid-burst (the property a 1M-flow accept benchmark
//     leans on).
//
// Tables are single-writer by design: each netstack transport shard
// owns one, and the shardaffinity analyzer enforces that only the
// owning shard (or the pump at quiescence) touches it. Stats are plain
// fields under the same discipline; DepthHist exports the probe-depth
// distribution as a telemetry.HistSnapshot so it merges with the rest
// of the flight-recorder machinery.
package flowtable

import (
	"math/bits"

	"ldlp/internal/telemetry"
)

const (
	// groupSlots is the probe-group width: 8 tag bytes scanned as one
	// cache-line-resident control word.
	groupSlots = 8
	// minGroups is the smallest allocation (32 slots): tiny tables stay
	// tiny until load proves otherwise.
	minGroups = 4
	// maxProbeGroups bounds displacement: an insert that cannot place
	// within this many groups grows the table instead.
	maxProbeGroups = 8
	// maxLoadNum/maxLoadDen is the occupancy (full + tombstone slots)
	// past which an insert triggers a grow — 13/16, swiss-table-ish.
	maxLoadNum, maxLoadDen = 13, 16
	// migrateGroups is how many old-table groups one Insert migrates
	// while a grow is in flight: large enough that the old array drains
	// long before the new one fills, small enough to never stall.
	migrateGroups = 8

	ctrlEmpty     = 0x00
	ctrlTombstone = 0x01

	// depthBuckets sizes the power-of-two probe-depth tally; depth
	// beyond 2^14 groups is impossible under the displacement bound but
	// the mask keeps the increment branch-free anyway.
	depthBuckets = 16
)

// Table is an open-addressed hash table from K to V. The zero value is
// not ready; use New. Not safe for concurrent use: one owner writes,
// and readers must hold the same quiescence the owner's other state
// needs (this is exactly the netstack shard discipline).
type Table[K comparable, V any] struct {
	hashFn func(K) uint64

	cur arr[K, V]
	// old is the pre-grow array while an incremental migration is in
	// flight (groups == 0 otherwise); migrated is the next old group to
	// move.
	old      arr[K, V]
	migrated int

	// Lookup stats: single-writer plain fields, read at quiescence.
	lookups  int64
	hits     int64
	probeSum int64
	probeMax int64
	depth    [depthBuckets]int64
}

// arr is one allocation generation: parallel tag/key/value arrays,
// groups a power of two.
type arr[K comparable, V any] struct {
	tags   []uint8
	keys   []K
	vals   []V
	groups int // power of two; 0 = absent
	live   int // full slots
	filled int // full + tombstone slots (load-factor input)
}

// New builds a table pre-sized for hint entries (0 for the minimum).
// hash maps a key to a well-mixed 64-bit value; the low bits pick the
// group and the top bits form the tag, so both ends must be mixed
// (pack the key and run it through a finalizer like Mix64).
func New[K comparable, V any](hint int, hash func(K) uint64) *Table[K, V] {
	t := &Table[K, V]{hashFn: hash}
	t.cur = newArr[K, V](groupsFor(hint))
	return t
}

// groupsFor returns the power-of-two group count whose capacity keeps
// n entries under the load bound.
func groupsFor(n int) int {
	g := minGroups
	for g*groupSlots*maxLoadNum < n*maxLoadDen {
		g <<= 1
	}
	return g
}

func newArr[K comparable, V any](groups int) arr[K, V] {
	n := groups * groupSlots
	return arr[K, V]{
		tags:   make([]uint8, n),
		keys:   make([]K, n),
		vals:   make([]V, n),
		groups: groups,
	}
}

// tagOf forms a slot tag from the hash's top 7 bits; the high bit keeps
// it distinct from ctrlEmpty/ctrlTombstone.
func tagOf(h uint64) uint8 { return uint8(h>>57) | 0x80 }

// Len reports live entries.
func (t *Table[K, V]) Len() int { return t.cur.live + t.old.live }

// Lookup finds k. Read-only — it never migrates, so it is safe from
// the owning shard's hot path at a fixed cost bound.
//
//ldlp:hotpath
func (t *Table[K, V]) Lookup(k K) (V, bool) {
	t.lookups++
	h := t.hashFn(k)
	v, ok, probes := t.cur.find(h, k)
	if !ok && t.old.groups != 0 {
		var p int
		v, ok, p = t.old.find(h, k)
		probes += p
	}
	t.probeSum += int64(probes)
	if int64(probes) > t.probeMax {
		t.probeMax = int64(probes)
	}
	t.depth[bits.Len64(uint64(probes))&(depthBuckets-1)]++
	if ok {
		t.hits++
	}
	return v, ok
}

// find probes for k in one array. probes counts groups touched.
//
//ldlp:hotpath
func (a *arr[K, V]) find(h uint64, k K) (V, bool, int) {
	var zero V
	if a.groups == 0 {
		return zero, false, 0
	}
	mask := uint64(a.groups - 1)
	tag := tagOf(h)
	g := h & mask
	for p := 0; p < a.groups; p++ {
		base := int((g+uint64(p))&mask) * groupSlots
		hasEmpty := false
		for i := base; i < base+groupSlots; i++ {
			c := a.tags[i]
			if c == tag && a.keys[i] == k {
				return a.vals[i], true, p + 1
			}
			if c == ctrlEmpty {
				hasEmpty = true
			}
		}
		if hasEmpty {
			// An empty slot in the probe sequence proves k was never
			// displaced past this group.
			return zero, false, p + 1
		}
	}
	return zero, false, a.groups
}

// Insert adds or updates k. Amortized O(1): it may advance an
// in-flight migration by a bounded number of groups and may start a
// grow, but never rehashes the whole table in one call (allocation
// happens in the cold grow path, not here).
//
//ldlp:hotpath
func (t *Table[K, V]) Insert(k K, v V) {
	if t.old.groups != 0 {
		t.migrateSome()
	}
	h := t.hashFn(k)
	// A key still parked in the old array is updated in place; it will
	// migrate with its group.
	if t.old.groups != 0 && t.old.update(h, k, v) {
		return
	}
	if !t.cur.insert(h, k, v, maxProbeGroups) {
		t.grow()
		if !t.cur.insert(h, k, v, t.cur.groups) {
			panic("flowtable: insert failed after grow")
		}
	}
	if t.cur.filled*maxLoadDen >= t.cur.groups*groupSlots*maxLoadNum {
		t.grow()
	}
}

// update overwrites an existing key's value, reporting whether it was
// present.
func (a *arr[K, V]) update(h uint64, k K, v V) bool {
	if a.groups == 0 {
		return false
	}
	mask := uint64(a.groups - 1)
	tag := tagOf(h)
	g := h & mask
	for p := 0; p < a.groups; p++ {
		base := int((g+uint64(p))&mask) * groupSlots
		hasEmpty := false
		for i := base; i < base+groupSlots; i++ {
			c := a.tags[i]
			if c == tag && a.keys[i] == k {
				a.vals[i] = v
				return true
			}
			if c == ctrlEmpty {
				hasEmpty = true
			}
		}
		if hasEmpty {
			return false
		}
	}
	return false
}

// insert places k within the displacement bound, updating in place if
// the key exists. Returns false when no slot was found within bound
// (caller grows and retries).
//
//ldlp:hotpath
func (a *arr[K, V]) insert(h uint64, k K, v V, bound int) bool {
	mask := uint64(a.groups - 1)
	tag := tagOf(h)
	g := h & mask
	free := -1
	if bound > a.groups {
		bound = a.groups
	}
	for p := 0; p < bound; p++ {
		base := int((g+uint64(p))&mask) * groupSlots
		hasEmpty := false
		for i := base; i < base+groupSlots; i++ {
			switch c := a.tags[i]; {
			case c == tag && a.keys[i] == k:
				a.vals[i] = v
				return true
			case c == ctrlEmpty:
				hasEmpty = true
				if free < 0 {
					free = i
				}
			case c == ctrlTombstone:
				if free < 0 {
					free = i
				}
			}
		}
		if hasEmpty {
			break // key provably absent; place at the first free slot seen
		}
	}
	if free < 0 {
		return false
	}
	if a.tags[free] == ctrlEmpty {
		a.filled++
	}
	a.tags[free] = tag
	a.keys[free] = k
	a.vals[free] = v
	a.live++
	return true
}

// Delete removes k, reporting whether it was present. Deletes never
// migrate (so they are legal while a Range walks the table).
func (t *Table[K, V]) Delete(k K) bool {
	h := t.hashFn(k)
	if t.cur.del(h, k) {
		return true
	}
	return t.old.groups != 0 && t.old.del(h, k)
}

func (a *arr[K, V]) del(h uint64, k K) bool {
	if a.groups == 0 {
		return false
	}
	mask := uint64(a.groups - 1)
	tag := tagOf(h)
	g := h & mask
	for p := 0; p < a.groups; p++ {
		base := int((g+uint64(p))&mask) * groupSlots
		hasEmpty := false
		for i := base; i < base+groupSlots; i++ {
			c := a.tags[i]
			if c == tag && a.keys[i] == k {
				var zeroK K
				var zeroV V
				a.tags[i] = ctrlTombstone
				a.keys[i] = zeroK
				a.vals[i] = zeroV
				a.live--
				return true
			}
			if c == ctrlEmpty {
				hasEmpty = true
			}
		}
		if hasEmpty {
			return false
		}
	}
	return false
}

// grow starts (or, if one is already in flight, force-finishes then
// starts) an incremental migration into an array sized for twice the
// live population. The allocation happens here, off the tagged fast
// paths: a declared cold step, amortized O(1) over insertions.
//
//ldlp:coldpath
func (t *Table[K, V]) grow() {
	if t.old.groups != 0 {
		t.finishMigration()
	}
	g := groupsFor(t.cur.live * 2)
	if g < t.cur.groups {
		g = t.cur.groups // never shrink mid-flight; tombstone purge only
	}
	t.old = t.cur
	t.migrated = 0
	t.cur = newArr[K, V](g)
}

// migrateSome moves up to migrateGroups groups from old into cur.
func (t *Table[K, V]) migrateSome() {
	end := t.migrated + migrateGroups
	if end > t.old.groups {
		end = t.old.groups
	}
	t.migrateRange(t.migrated, end)
	t.migrated = end
	if t.migrated >= t.old.groups {
		t.old = arr[K, V]{}
		t.migrated = 0
	}
}

// finishMigration drains the old array completely (the rare
// grow-during-grow fallback and the pre-Range normalizer for callers
// that want single-array iteration; normal operation never needs it).
func (t *Table[K, V]) finishMigration() {
	if t.old.groups == 0 {
		return
	}
	t.migrateRange(t.migrated, t.old.groups)
	t.old = arr[K, V]{}
	t.migrated = 0
}

func (t *Table[K, V]) migrateRange(from, to int) {
	for g := from; g < to; g++ {
		base := g * groupSlots
		for i := base; i < base+groupSlots; i++ {
			if t.old.tags[i] < 0x80 {
				continue
			}
			k := t.old.keys[i]
			if !t.cur.insert(t.hashFn(k), k, t.old.vals[i], t.cur.groups) {
				panic("flowtable: migration target full")
			}
			t.old.tags[i] = ctrlTombstone
			t.old.live--
		}
	}
}

// Range calls fn for every live entry (old array first, then current),
// stopping early if fn returns false. fn may Delete any entry —
// including the one it was called with — but must not Insert; the walk
// is over a snapshot of slot positions, and inserts could rehash
// entries across the cursor.
func (t *Table[K, V]) Range(fn func(K, V) bool) {
	if t.old.groups != 0 {
		if !t.old.rangeArr(fn) {
			return
		}
	}
	t.cur.rangeArr(fn)
}

func (a *arr[K, V]) rangeArr(fn func(K, V) bool) bool {
	for i := range a.tags {
		if a.tags[i] < 0x80 {
			continue
		}
		if !fn(a.keys[i], a.vals[i]) {
			return false
		}
	}
	return true
}

// Stats is a quiescent snapshot of the table's shape and lookup
// behaviour.
type Stats struct {
	Live      int   `json:"live"`
	Capacity  int   `json:"capacity"`
	Migrating bool  `json:"migrating"`
	Lookups   int64 `json:"lookups"`
	Hits      int64 `json:"hits"`
	ProbeMax  int64 `json:"probeMax"`
}

// Stats reports the table's current shape and lookup tallies.
func (t *Table[K, V]) Stats() Stats {
	return Stats{
		Live:      t.Len(),
		Capacity:  t.cur.groups * groupSlots,
		Migrating: t.old.groups != 0,
		Lookups:   t.lookups,
		Hits:      t.hits,
		ProbeMax:  t.probeMax,
	}
}

// DepthHist exports the probe-depth distribution (groups touched per
// Lookup) as a telemetry histogram snapshot, mergeable across shards
// with the standard machinery; quantiles come from
// telemetry.HistSnapshot.Quantile.
func (t *Table[K, V]) DepthHist() telemetry.HistSnapshot {
	var s telemetry.HistSnapshot
	for i, n := range t.depth {
		s.Buckets[i] = n
	}
	s.Count = t.lookups
	s.Sum = t.probeSum
	s.Max = t.probeMax
	return s
}

// Mix64 is the SplitMix64 finalizer: the recommended way to turn a
// packed fixed-width key into the well-mixed hash New requires.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
