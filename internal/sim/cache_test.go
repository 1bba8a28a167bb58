package sim

import (
	"testing"
)

func testCache(capBlocks int, limit int) *cache {
	cfg := DefaultConfig()
	cfg.CacheBytes = int64(capBlocks) * cfg.BlockBytes
	cfg.PerProcessBlockLimit = limit
	return newCache(&cfg)
}

func TestBlockRange(t *testing.T) {
	c := testCache(16, 0)
	bs := c.blockSize
	cases := []struct {
		off, ln     int64
		first, last int64
	}{
		{0, bs, 0, 0},
		{0, bs + 1, 0, 1},
		{bs - 1, 2, 0, 1},
		{bs, bs, 1, 1},
		{3 * bs, 4 * bs, 3, 6},
		{10, 0, 0, 0}, // degenerate zero length maps to one block
	}
	for _, tc := range cases {
		keys := c.blockRange(7, tc.off, tc.ln)
		if keys[0].idx != tc.first || keys[len(keys)-1].idx != tc.last {
			t.Errorf("blockRange(%d,%d) = [%d..%d], want [%d..%d]",
				tc.off, tc.ln, keys[0].idx, keys[len(keys)-1].idx, tc.first, tc.last)
		}
		for _, k := range keys {
			if k.file != 7 {
				t.Fatal("wrong file in key")
			}
		}
	}
}

func TestAcquireInsertEvict(t *testing.T) {
	c := testCache(4, 0)
	for i := int64(0); i < 4; i++ {
		if !c.acquire(1, 1) {
			t.Fatalf("acquire %d failed", i)
		}
		c.insert(blockKey{1, i}, 1, false, false, 0)
	}
	if owned := c.owned[c.ownerIndex(1)].n; c.used() != 4 || owned != 4 {
		t.Fatalf("used %d owned %d", c.used(), owned)
	}
	// A fifth block evicts the LRU (block 0).
	if !c.acquire(1, 1) {
		t.Fatal("acquire with evictable blocks failed")
	}
	c.insert(blockKey{1, 4}, 1, false, false, 0)
	if c.resident(blockKey{1, 0}) != nil {
		t.Error("LRU block survived eviction")
	}
	if c.resident(blockKey{1, 4}) == nil {
		t.Error("new block not resident")
	}
}

func TestTouchProtectsFromEviction(t *testing.T) {
	c := testCache(3, 0)
	for i := int64(0); i < 3; i++ {
		c.acquire(1, 1)
		c.insert(blockKey{1, i}, 1, false, false, 0)
	}
	c.touch(c.resident(blockKey{1, 0})) // 0 becomes MRU; 1 is now LRU
	c.acquire(1, 1)
	c.insert(blockKey{1, 3}, 1, false, false, 0)
	if c.resident(blockKey{1, 0}) == nil {
		t.Error("touched block evicted")
	}
	if c.resident(blockKey{1, 1}) != nil {
		t.Error("LRU block not evicted")
	}
}

func TestDirtyBlocksNotEvictable(t *testing.T) {
	c := testCache(2, 0)
	c.acquire(1, 2)
	c.insert(blockKey{1, 0}, 1, true, false, 0)
	c.insert(blockKey{1, 1}, 1, true, false, 0)
	if c.acquire(1, 1) {
		t.Error("acquire succeeded with only dirty blocks resident")
	}
	// Cleaning one makes space.
	c.markClean(c.resident(blockKey{1, 0}))
	if !c.acquire(1, 1) {
		t.Error("acquire failed after cleaning")
	}
}

func TestPinnedBlocksNotEvictable(t *testing.T) {
	c := testCache(2, 0)
	c.acquire(1, 2)
	c.insert(blockKey{1, 0}, 1, false, false, 0)
	c.insert(blockKey{1, 1}, 1, false, false, 0)
	c.resident(blockKey{1, 0}).pinned = true
	c.resident(blockKey{1, 1}).pinned = true
	if c.acquire(1, 1) {
		t.Error("acquire evicted a pinned block")
	}
	c.resident(blockKey{1, 0}).pinned = false
	if !c.acquire(1, 1) {
		t.Error("acquire failed after unpinning")
	}
}

func TestCanEverFit(t *testing.T) {
	c := testCache(8, 4)
	if c.canEverFit(1, 9) {
		t.Error("request larger than capacity fits")
	}
	if c.canEverFit(1, 5) {
		t.Error("request larger than per-process limit fits")
	}
	if !c.canEverFit(1, 4) {
		t.Error("request at limit rejected")
	}
	// The system pseudo-pid is not subject to the per-process limit.
	if !c.canEverFit(0, 8) {
		t.Error("system request rejected by per-process limit")
	}
}

func TestPerProcessLimitEvictsOwnBlocks(t *testing.T) {
	c := testCache(8, 2)
	c.acquire(1, 2)
	c.insert(blockKey{1, 0}, 1, false, false, 0)
	c.insert(blockKey{1, 1}, 1, false, false, 0)
	c.acquire(2, 2)
	c.insert(blockKey{2, 0}, 2, false, false, 0)
	c.insert(blockKey{2, 1}, 2, false, false, 0)
	// Process 1 wants 2 more: its own blocks must go, not process 2's.
	if !c.acquire(1, 2) {
		t.Fatal("acquire failed")
	}
	if c.resident(blockKey{1, 0}) != nil || c.resident(blockKey{1, 1}) != nil {
		t.Error("own blocks not evicted under per-process limit")
	}
	if c.resident(blockKey{2, 0}) == nil || c.resident(blockKey{2, 1}) == nil {
		t.Error("other process's blocks evicted")
	}
}

func TestPerProcessLimitBlocksOnOwnDirty(t *testing.T) {
	c := testCache(8, 2)
	c.acquire(1, 2)
	c.insert(blockKey{1, 0}, 1, true, false, 0)
	c.insert(blockKey{1, 1}, 1, true, false, 0)
	if c.acquire(1, 1) {
		t.Error("limit acquire succeeded over own dirty blocks")
	}
	c.markClean(c.resident(blockKey{1, 0}))
	if !c.acquire(1, 1) {
		t.Error("limit acquire failed after cleaning")
	}
}

func TestInsertAlreadyResidentMergesDirty(t *testing.T) {
	c := testCache(4, 0)
	c.acquire(1, 1)
	c.insert(blockKey{1, 0}, 1, false, false, 0)
	// A raced second insert (reservation made elsewhere) releases its
	// reservation and merges dirtiness.
	c.acquire(1, 1)
	c.insert(blockKey{1, 0}, 2, true, false, 0)
	b := c.resident(blockKey{1, 0})
	if !b.dirty {
		t.Error("dirtiness not merged")
	}
	if b.owner != 1 {
		t.Error("original owner clobbered")
	}
	if c.used() != 1 {
		t.Errorf("used = %d, want 1 (reservation released)", c.used())
	}
}

func TestDirtyRunFromFIFOFront(t *testing.T) {
	c := testCache(16, 0)
	// Dirty blocks 3,4,5 of file 1 (3 oldest) and block 9 of file 2.
	for _, idx := range []int64{3, 4, 5} {
		c.acquire(1, 1)
		c.insert(blockKey{1, idx}, 1, true, false, 0)
	}
	c.acquire(1, 1)
	c.insert(blockKey{2, 9}, 1, true, false, 0)
	run := c.dirtyRunFrom(c.dirty.front, 8)
	if len(run) != 3 {
		t.Fatalf("run length = %d, want 3", len(run))
	}
	for i, b := range run {
		if b.key.file != 1 || b.key.idx != int64(3+i) {
			t.Errorf("run[%d] = %+v", i, b.key)
		}
	}
	// Bounded by maxRun; pinning is the issuer's job, so the run must
	// stop extending at a pinned successor.
	for _, b := range run {
		c.markClean(b)
	}
	run = c.dirtyRunFrom(c.dirty.front, 1)
	if len(run) != 1 || run[0].key != (blockKey{2, 9}) {
		t.Errorf("bounded run = %+v", run)
	}
	c.acquire(1, 1)
	c.insert(blockKey{2, 10}, 1, true, false, 0)
	c.resident(blockKey{2, 10}).pinned = true
	if run = c.dirtyRunFrom(c.dirty.front, 4); len(run) != 1 {
		t.Errorf("run extended into a pinned block: %+v", run)
	}
}

func TestWastedPrefetchCounted(t *testing.T) {
	c := testCache(2, 0)
	c.acquire(1, 1)
	c.insert(blockKey{1, 0}, 1, false, true, 0) // prefetched
	c.acquire(1, 1)
	c.insert(blockKey{1, 1}, 1, false, false, 0)
	// Evicting the unreferenced prefetch counts as waste.
	c.acquire(1, 1)
	c.insert(blockKey{1, 2}, 1, false, false, 0)
	if c.stats.WastedPrefetch != 1 {
		t.Errorf("WastedPrefetch = %d", c.stats.WastedPrefetch)
	}
	// A touched prefetch does not count.
	c.touch(c.resident(blockKey{1, 1}))
}

func TestSlotOverflowBeyondSpineCap(t *testing.T) {
	c := testCache(8, 0)
	hi := blockKey{1, int64(maxSpinePages)*slotPageSize + 5}
	if !c.acquire(1, 1) {
		t.Fatal("acquire failed")
	}
	c.insert(hi, 1, false, false, 0)
	if c.resident(hi) == nil {
		t.Fatal("high-index block not resident")
	}
	fs := c.files[1]
	if len(fs.pages) != 0 {
		t.Errorf("spine grew to %d pages for an over-cap index", len(fs.pages))
	}
	if fs.overflow[hi.idx>>slotPageShift] == nil {
		t.Fatal("over-cap page not in the overflow map")
	}
	// Pending marks work through the overflow map too.
	hi2 := blockKey{1, hi.idx + slotPageSize}
	f := &fetch{keys: []blockKey{hi2}}
	c.setPending(hi2, f)
	if c.pendingAt(hi2) != f {
		t.Error("over-cap pending mark lost")
	}
	c.clearPending(hi2)
	if len(fs.overflow) != 1 {
		t.Errorf("%d overflow pages after clear, want 1", len(fs.overflow))
	}
	// Eviction recycles the overflow page.
	c.evict(c.resident(hi))
	if c.resident(hi) != nil {
		t.Error("block survived eviction")
	}
	if len(fs.overflow) != 0 {
		t.Errorf("%d overflow pages after eviction, want 0", len(fs.overflow))
	}
	// Low indexes keep using the spine.
	c.acquire(1, 1)
	c.insert(blockKey{1, 3}, 1, false, false, 0)
	if len(fs.pages) == 0 || fs.pages[0] == nil {
		t.Error("low-index block not on the spine")
	}
}

func TestSlotNegativeIndexSurvives(t *testing.T) {
	// A record whose offset+length overflows int64 can produce negative
	// block indexes; the old map index tolerated them, and the paged
	// tables route them through the overflow map rather than panicking.
	c := testCache(8, 0)
	neg := blockKey{1, -(int64(maxSpinePages)*slotPageSize + 7)}
	if c.resident(neg) != nil || c.pendingAt(neg) != nil {
		t.Fatal("phantom entry at negative index")
	}
	if !c.acquire(1, 1) {
		t.Fatal("acquire failed")
	}
	c.insert(neg, 1, false, false, 0)
	if c.resident(neg) == nil {
		t.Fatal("negative-index block not resident")
	}
	c.evict(c.resident(neg))
	if c.resident(neg) != nil {
		t.Error("block survived eviction")
	}
	if n := len(c.files[1].overflow); n != 0 {
		t.Errorf("%d overflow pages after eviction, want 0", n)
	}
}

func TestHitRatio(t *testing.T) {
	var st cacheStats
	if st.ReadHitRatio() != 0 {
		t.Error("empty ratio should be 0")
	}
	st.ReadHitReqs, st.ReadMissReqs = 3, 1
	if st.ReadHitRatio() != 0.75 {
		t.Errorf("ratio = %v", st.ReadHitRatio())
	}
}

func TestEvictPanicsOnDirty(t *testing.T) {
	c := testCache(2, 0)
	c.acquire(1, 1)
	c.insert(blockKey{1, 0}, 1, true, false, 0)
	defer func() {
		if recover() == nil {
			t.Error("evicting dirty block did not panic")
		}
	}()
	c.evict(c.resident(blockKey{1, 0}))
}

// linearCache is the eviction reference: every resident block on one
// list in recency order, and evictLRUCleanLinear walking it from the
// least recently used end past dirty, pinned and, under a per-process
// limit, other owners' blocks. acquire mirrors cache.acquire around it.
type linearCache struct {
	capacity, limit int
	reserved        int
	lru             []*linearBlock // front = least recently used
	owned           map[uint32]int
}

type linearBlock struct {
	key                       blockKey
	owner                     uint32
	dirty, pinned, prefetched bool
}

func (m *linearCache) find(key blockKey) (int, *linearBlock) {
	for i, b := range m.lru {
		if b.key == key {
			return i, b
		}
	}
	return -1, nil
}

func (m *linearCache) evictLRUCleanLinear(owner uint32, restrict bool) (blockKey, bool) {
	for i, b := range m.lru {
		if b.dirty || b.pinned {
			continue
		}
		if restrict && b.owner != owner {
			continue
		}
		m.lru = append(m.lru[:i], m.lru[i+1:]...)
		m.owned[b.owner]--
		return b.key, true
	}
	return blockKey{}, false
}

func (m *linearCache) acquire(pid uint32, n int) (evicted []blockKey, ok bool) {
	if n > m.capacity || (m.limit > 0 && pid != 0 && n > m.limit) {
		return nil, false
	}
	if m.limit > 0 && pid != 0 {
		for m.owned[pid]+n > m.limit {
			k, ok := m.evictLRUCleanLinear(pid, true)
			if !ok {
				return evicted, false
			}
			evicted = append(evicted, k)
		}
	}
	for len(m.lru)+m.reserved+n > m.capacity {
		k, ok := m.evictLRUCleanLinear(0, false)
		if !ok {
			return evicted, false
		}
		evicted = append(evicted, k)
	}
	m.reserved += n
	return evicted, true
}

func (m *linearCache) touch(i int) {
	b := m.lru[i]
	m.lru = append(append(m.lru[:i], m.lru[i+1:]...), b)
	b.prefetched = false
}

func (m *linearCache) insert(key blockKey, owner uint32, dirty, prefetched bool) {
	m.reserved--
	if i, b := m.find(key); b != nil {
		m.touch(i)
		b.dirty = b.dirty || dirty
		return
	}
	m.lru = append(m.lru, &linearBlock{key: key, owner: owner, dirty: dirty, prefetched: prefetched})
	m.owned[owner]++
}

// acquireEvicting runs c.acquire and returns the keys it evicted, in
// eviction order, read back from the block free list.
func acquireEvicting(c *cache, pid uint32, n int) ([]blockKey, bool) {
	head := c.free
	ok := c.acquire(pid, n)
	var keys []blockKey
	for b := c.free; b != head; b = b.freeNext {
		keys = append([]blockKey{b.key}, keys...)
	}
	return keys, ok
}

// checkCleanSet checks that s holds exactly want clean blocks, and any
// number of dirty ones, with lru in stamp order, every block's place
// recorded, and heap a min-heap.
func checkCleanSet(t *testing.T, s *cleanSet, want int) {
	t.Helper()
	clean, n := 0, 0
	var prev *block
	for b := s.lru.front; b != nil; b = b.links[lruList].next {
		if b.pos != onLRU || (prev != nil && b.stamp <= prev.stamp) {
			t.Fatalf("lru block %+v after %+v out of place", b.key, prev)
		}
		if !b.dirty {
			clean++
		}
		prev = b
		n++
	}
	if n != s.lru.n {
		t.Fatalf("lru holds %d blocks, counts %d", n, s.lru.n)
	}
	for i, e := range s.heap {
		b := e.b
		if e.stamp != b.stamp || int(b.pos) != i+1 || (i > 0 && b.stamp < s.heap[(i-1)/4].stamp) {
			t.Fatalf("heap[%d] = %+v out of place", i, b.key)
		}
		if !b.dirty {
			clean++
		}
	}
	if clean != want {
		t.Fatalf("clean set holds %d clean blocks, want %d", clean, want)
	}
}

// Eviction-fuzz operations; see FuzzCacheEvictionMatchesLinear.
const (
	opInsert = iota
	opTouch
	opDirty
	opPin
	opUnpin
	opAcquire
	opPinClean
	numEvictOps
)

// FuzzCacheEvictionMatchesLinear drives the cache and the linear
// reference with one random operation sequence and requires every
// acquire to agree on success and on the blocks it evicted, in order.
// The operations are the simulator's: insert (clean, dirty or
// prefetched, by pids 0-4), touch, markDirty, pinning a dirtyRunFrom run
// and later unpinning and cleaning it, and acquire with and without a
// per-process limit; plus pinning and unpinning a clean block.
// The input's first two bytes pick the capacity and per-process limit;
// each following operation reads its arguments from the next bytes.
func FuzzCacheEvictionMatchesLinear(f *testing.F) {
	// A long dirty prefix: 28 of 32 slots dirty, then clean inserts
	// that must evict past it, with flushes cleaning runs behind them.
	var dirtyPrefix []byte
	dirtyPrefix = append(dirtyPrefix, 30, 0)
	for i := byte(0); i < 28; i++ {
		dirtyPrefix = append(dirtyPrefix, opInsert, 1, 0, 0, i, 1)
	}
	for i := byte(0); i < 12; i++ {
		dirtyPrefix = append(dirtyPrefix, opInsert, 2, 1, 1, 2*i, 0)
		if i%3 == 0 {
			dirtyPrefix = append(dirtyPrefix, opPin, 0, 4*i, 3, opTouch, 0, 4*i+1)
		}
		if i%3 == 2 {
			dirtyPrefix = append(dirtyPrefix, opUnpin, 0)
		}
	}
	f.Add(dirtyPrefix)
	// A per-process limit of 4 in 16 slots, with owners 2 and 3 at the
	// LRU front while owner 1 evicts its own blocks.
	var ownerLimit []byte
	ownerLimit = append(ownerLimit, 14, 4)
	for pid := byte(2); pid <= 3; pid++ {
		ownerLimit = append(ownerLimit, opInsert, pid, 3, 0, 8*pid, 0)
	}
	for i := byte(0); i < 6; i++ {
		ownerLimit = append(ownerLimit, opInsert, 1, 1, 1, 3*i, i%3)
		ownerLimit = append(ownerLimit, opAcquire, 0, 1, opDirty, 1, 3*i)
	}
	f.Add(ownerLimit)

	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			v := int(in[0])
			in = in[1:]
			return v
		}
		capBlocks := 2 + next()%31
		limit := next() % (capBlocks + 1)
		if limit%2 == 1 {
			limit = 0 // half the inputs run without a per-process limit
		}
		c := testCache(capBlocks, limit)
		m := &linearCache{capacity: capBlocks, limit: limit, owned: map[uint32]int{}}
		key := func() blockKey { return blockKey{uint32(1 + next()%2), int64(next() % 40)} }
		var runs [][]blockKey
		acquire := func(step int, pid uint32, n int) bool {
			got, ok := acquireEvicting(c, pid, n)
			want, wantOK := m.acquire(pid, n)
			if ok != wantOK || len(got) != len(want) {
				t.Fatalf("step %d: acquire(%d, %d) = %v evicting %v, linear %v evicting %v",
					step, pid, n, ok, got, wantOK, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: acquire(%d, %d) evicted %v, linear %v", step, pid, n, got, want)
				}
			}
			return ok
		}
		for step := 0; len(in) > 0; step++ {
			switch next() % numEvictOps {
			case opInsert:
				pid, n := uint32(next()%5), 1+next()%4
				k := key()
				kind := next() % 3
				if acquire(step, pid, n) {
					for j := 0; j < n; j++ {
						kj := blockKey{k.file, k.idx + int64(j)}
						c.insert(kj, pid, kind == 1, kind == 2, int64(step))
						m.insert(kj, pid, kind == 1, kind == 2)
					}
				}
			case opTouch:
				k := key()
				if i, b := m.find(k); b != nil {
					c.touch(c.resident(k))
					m.touch(i)
				}
			case opDirty:
				k := key()
				if _, b := m.find(k); b != nil {
					c.markDirty(c.resident(k), int64(step))
					b.dirty = true
				}
			case opPin:
				k := key()
				maxRun := 1 + next()%4
				b := c.resident(k)
				if b == nil || !b.dirty || b.pinned {
					break
				}
				var run []blockKey
				for _, rb := range c.dirtyRunFrom(b, maxRun) {
					rb.pinned = true
					_, mb := m.find(rb.key)
					mb.pinned = true
					run = append(run, rb.key)
				}
				runs = append(runs, run)
			case opUnpin:
				if len(runs) == 0 {
					break
				}
				i := next() % len(runs)
				for _, k := range runs[i] {
					b := c.resident(k)
					b.pinned = false
					c.markClean(b)
					_, mb := m.find(k)
					mb.pinned, mb.dirty = false, false
				}
				runs = append(runs[:i], runs[i+1:]...)
			case opAcquire:
				pid, n := uint32(next()%5), 1+next()%4
				if acquire(step, pid, n) {
					c.unreserve(n)
					m.reserved -= n
				}
			case opPinClean:
				// The simulator pins only dirty runs; pinning a clean
				// block checks that the victim search skips it too.
				k := key()
				if _, mb := m.find(k); mb != nil && !mb.dirty {
					mb.pinned = !mb.pinned
					c.resident(k).pinned = mb.pinned
				}
			}
			if c.nResident != len(m.lru) || c.used() != len(m.lru)+m.reserved {
				t.Fatalf("step %d: %d resident, %d used; linear %d, %d",
					step, c.nResident, c.used(), len(m.lru), len(m.lru)+m.reserved)
			}
			dirty := 0
			for _, b := range m.lru {
				if b.dirty {
					dirty++
				}
			}
			if c.dirtyCount() != dirty {
				t.Fatalf("step %d: %d dirty, linear %d", step, c.dirtyCount(), dirty)
			}
			if limit == 0 {
				checkCleanSet(t, &c.clean, c.nResident-dirty)
				continue
			}
			for _, o := range c.owned {
				clean := 0
				for _, b := range m.lru {
					if b.owner == o.pid && !b.dirty {
						clean++
					}
				}
				checkCleanSet(t, &o.clean, clean)
			}
		}
	})
}
