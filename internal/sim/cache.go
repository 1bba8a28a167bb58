package sim

// blockKey identifies one cache block: a block-aligned slice of one file.
type blockKey struct {
	file uint32
	idx  int64
}

// Intrusive list plumbing: a block sits on one of its clean set's lists
// (see cleanSet) and, while dirty, on the dirty FIFO, so it carries one
// set of links for each. Intrusive links replace container/list, which
// boxes every element in an interface{}-valued list.Element allocation.
const (
	lruList   = 0
	dirtyList = 1
)

type blockLink struct {
	prev, next *block
}

// block is one resident cache block. The fields touch and the victim
// search use fill the first 32 bytes; the struct is padded to 96 bytes,
// and so a 64-block slab to 6 KB, a Go size class, so every block starts
// 32-byte aligned and those fields share one cache line.
type block struct {
	stamp      uint64 // recency: the cache's clock at the last insert or touch
	pos        int32  // place in its clean set: onLRU, i+1 for heap[i], or offSet
	dirty      bool
	pinned     bool         // being flushed; not evictable
	prefetched bool         // brought in by read-ahead, not yet referenced
	links      [2]blockLink // lruList and dirtyList membership

	key      blockKey
	owner    uint32 // pid that brought the block in (0 = system)
	ownerIdx int32  // owner's entry in cache.owned
	dirtyAt  int64  // tick the block became dirty (delayed-write aging)
	freeNext *block // free-list chain for recycled blocks
	_        [8]byte
}

// blockList is an intrusive doubly-linked list over one of a block's link
// sets. front is the least recently used (or oldest dirty) block.
type blockList struct {
	front, back *block
	which       int
	n           int
}

func (l *blockList) pushBack(b *block) {
	ln := &b.links[l.which]
	ln.prev = l.back
	ln.next = nil
	if l.back != nil {
		l.back.links[l.which].next = b
	} else {
		l.front = b
	}
	l.back = b
	l.n++
}

func (l *blockList) remove(b *block) {
	ln := &b.links[l.which]
	if ln.prev != nil {
		ln.prev.links[l.which].next = ln.next
	} else {
		l.front = ln.next
	}
	if ln.next != nil {
		ln.next.links[l.which].prev = ln.prev
	} else {
		l.back = ln.prev
	}
	ln.prev, ln.next = nil, nil
	l.n--
}

// cleanSet finds the least recently used clean block of a group (the
// whole cache, or one owner's blocks) without walking past a dirty block
// more than once. Recency is the block's stamp. Every clean block of the
// group is in one of two places:
//   - lru, kept in stamp order because a block joins it only at the back
//     with a stamp newer than any there (insert, touch);
//   - heap, a 4-ary min-heap by stamp.
//
// markDirty leaves a block where it is. The victim search takes the
// dirty blocks it meets at the front of lru or the top of heap off the
// set (pos offSet), so it passes each one once per time it is dirtied,
// and markClean puts back only the blocks it took off: at lru's back if
// no block there is newer, else on heap, with the stamp of their last
// use. A block's place stays valid while it is dirty, since its stamp
// changes only on touch, which moves a block in the set to lru's back.
//
// The victim is then the older of lru's first clean, unpinned block and
// heap's top: the block a front-to-back walk of a list holding every
// block in recency order would stop at. Where the flusher cleans blocks
// before they age to the front of lru, as it does in most caches, heap
// stays empty and the search looks at one block, as the walk did.
type cleanSet struct {
	lru  blockList
	heap []heapEntry
}

// Places of a block (block.pos) other than i+1 for heap[i].
const (
	onLRU  = 0
	offSet = -1
)

// pushBack adds b, which carries the newest stamp.
func (s *cleanSet) pushBack(b *block) {
	s.lru.pushBack(b)
	b.pos = onLRU
}

// remove takes b off the set.
func (s *cleanSet) remove(b *block) {
	switch {
	case b.pos == onLRU:
		s.lru.remove(b)
	case b.pos > 0:
		s.heapRemove(b)
	default:
		return
	}
	b.pos = offSet
}

// cleaned puts back b, which markClean found off the set.
func (s *cleanSet) cleaned(b *block) {
	switch {
	case s.lru.back == nil || s.lru.back.stamp < b.stamp:
		s.pushBack(b)
	default:
		s.heap = append(s.heap, heapEntry{})
		s.up(len(s.heap)-1, heapEntry{b.stamp, b})
	}
}

// victim returns the least recently used clean, unpinned block, or nil.
// The simulator pins only dirty blocks, so pinned clean blocks exist
// only where a caller pins one directly; they are skipped, not taken off.
func (s *cleanSet) victim() *block {
	v := s.lru.front
	for v != nil && (v.dirty || v.pinned) {
		next := v.links[lruList].next
		if v.dirty {
			s.remove(v)
		}
		v = next
	}
	for len(s.heap) > 0 && (v == nil || s.heap[0].stamp < v.stamp) {
		top := s.heap[0].b
		if top.dirty {
			s.remove(top)
			continue
		}
		if !top.pinned {
			return top
		}
		// A pinned top: find the oldest clean, unpinned entry.
		for _, e := range s.heap {
			if !e.b.dirty && !e.b.pinned && (v == nil || e.stamp < v.stamp) {
				v = e.b
			}
		}
		break
	}
	return v
}

// heapEntry is one heap slot. The stamp is copied in so that sifting
// compares without loading the blocks.
type heapEntry struct {
	stamp uint64
	b     *block
}

func (s *cleanSet) heapSet(i int, e heapEntry) {
	s.heap[i] = e
	e.b.pos = int32(i + 1)
}

// up places e at position i or above it.
func (s *cleanSet) up(i int, e heapEntry) {
	for i > 0 {
		p := (i - 1) / 4
		if s.heap[p].stamp < e.stamp {
			break
		}
		s.heapSet(i, s.heap[p])
		i = p
	}
	s.heapSet(i, e)
}

// down places e at position i or below it.
func (s *cleanSet) down(i int, e heapEntry) {
	n := len(s.heap)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		c := first
		for j := first + 1; j < first+4 && j < n; j++ {
			if s.heap[j].stamp < s.heap[c].stamp {
				c = j
			}
		}
		if e.stamp < s.heap[c].stamp {
			break
		}
		s.heapSet(i, s.heap[c])
		i = c
	}
	s.heapSet(i, e)
}

func (s *cleanSet) heapRemove(b *block) {
	i := int(b.pos) - 1
	last := len(s.heap) - 1
	tail := s.heap[last]
	s.heap[last] = heapEntry{}
	s.heap = s.heap[:last]
	if i == last {
		return
	}
	if i > 0 && tail.stamp < s.heap[(i-1)/4].stamp {
		s.up(i, tail)
	} else {
		s.down(i, tail)
	}
}

// fetch is an in-flight disk read filling cache blocks. Requests needing
// a block that is already being fetched join the fetch's waiters instead
// of fetching again. Fetches are recycled through the simulator's
// free-list once complete.
type fetch struct {
	keys       []blockKey
	owner      uint32
	prefetched bool
	waiters    []*ioWait
	freeNext   *fetch
}

// ioWait tracks a synchronous request waiting on one or more fetches; the
// blocked process wakes when the last one lands. failed marks a wait one
// of whose legs hit an unrecoverable fault: when the last leg settles the
// process restarts from its checkpoint instead of waking. Waits are
// recycled through the simulator's free-list.
type ioWait struct {
	remaining int
	failed    bool
	p         *proc
	freeNext  *ioWait
}

// cacheStats counts request- and block-level cache activity.
type cacheStats struct {
	ReadHitReqs    int64 // read requests fully satisfied in cache
	ReadMissReqs   int64 // read requests needing any disk block
	RAHitReqs      int64 // hit requests touching read-ahead blocks
	WriteAbsorbed  int64 // writes absorbed by write-behind
	WriteThrough   int64 // writes that went synchronously to disk
	Bypasses       int64 // requests that skipped the cache entirely
	PrefetchOps    int64 // read-ahead fetches issued
	WastedPrefetch int64 // prefetched blocks evicted unreferenced
	SpaceStalls    int64 // requests that had to wait for buffer space
}

// ReadHitRatio returns the fraction of read requests fully satisfied in
// the cache.
func (c cacheStats) ReadHitRatio() float64 {
	t := c.ReadHitReqs + c.ReadMissReqs
	if t == 0 {
		return 0
	}
	return float64(c.ReadHitReqs) / float64(t)
}

// The resident/pending indexes are paged per-file direct tables instead
// of hash maps: a request's keys are contiguous block indices of one
// file, so a lookup is (cached file pointer) + two array indexings — no
// hashing, no probing. Profiles of the map-based engine spent over half
// the simulation hashing and probing blockKey maps.
//
// Pages hold 64 slots; a page is allocated when a block or fetch first
// lands in its index range and recycled when its last entry clears, so
// live pages are bounded by cache capacity plus in-flight fetches. The
// page *spine* (the per-file page-pointer array) is dense in the highest
// touched page number, so it is capped at maxSpinePages (16 GB of file
// at 4 KB blocks, ≤512 KB of pointers); pages past the cap live in a
// small overflow map, keeping pathological offsets at hash-map cost
// instead of unbounded spine growth.
const (
	slotPageShift = 6
	slotPageSize  = 1 << slotPageShift
	slotPageMask  = slotPageSize - 1
	maxSpinePages = 1 << 16
)

// cacheSlot indexes one block position: the resident block (if any) and
// the in-flight fetch covering it (if any).
type cacheSlot struct {
	b *block
	f *fetch
}

type slotPage struct {
	used     int // slots with a block or fetch set
	freeNext *slotPage
	slots    [slotPageSize]cacheSlot
}

// fileSlots is one file's page table, indexed by block index.
type fileSlots struct {
	pages    []*slotPage
	overflow map[int64]*slotPage // pages past the spine cap
}

// page returns the page numbered p, or nil. Negative page numbers (a
// record's offset+length overflowing int64) resolve through the
// overflow map like over-cap ones, so pathological traces stay
// survivable as they were with the old hash-map index.
func (fs *fileSlots) page(p int64) *slotPage {
	if p >= 0 && p < int64(len(fs.pages)) {
		return fs.pages[p]
	}
	if fs.overflow != nil {
		return fs.overflow[p]
	}
	return nil
}

// ownerCount is one entry of the compact per-process ownership table
// (a handful of pids; linear scan, no hashing). Entries are never
// removed, so a block keeps its owner's index.
type ownerCount struct {
	pid   uint32
	n     int
	clean cleanSet // the owner's blocks, under a per-process limit
}

// cache is the block cache (or the system-managed SSD, in SSD tier).
type cache struct {
	blockSize int64
	capacity  int
	limit     int // per-process block cap (0 = none)

	files     map[uint32]*fileSlots
	lastFile  uint32     // one-entry accelerator for slot lookups:
	lastSlots *fileSlots // requests index one file many blocks at a time
	pageFree  *slotPage  // recycled (zeroed) pages

	nResident int
	clock     uint64    // last stamp handed out
	clean     cleanSet  // every block, without a per-process limit
	dirty     blockList // front = oldest dirty block
	owned     []ownerCount
	reserved  int // slots promised to in-flight fetches

	free   *block   // recycled block structs
	slab   []block  // unused tail of the newest block slab
	runBuf []*block // reusable dirtyRunFrom result

	// Per-volume dirty accounting, wired after the disk exists
	// (wireVolumes): dirtyByVol[v] counts dirty blocks whose first byte
	// lives on volume v, so the flusher can tell in O(volumes) whether
	// any idle volume has flushable work instead of scanning the FIFO.
	d                *disk
	dirtyByVol       []int
	dirtyByVolInline [8]int

	stats cacheStats
}

func newCache(cfg *Config) *cache {
	return &cache{
		blockSize: cfg.BlockBytes,
		capacity:  cfg.CacheBlocks(),
		limit:     cfg.PerProcessBlockLimit,
		files:     make(map[uint32]*fileSlots),
		clean:     cleanSet{lru: blockList{which: lruList}},
		dirty:     blockList{which: dirtyList},
	}
}

// slotsFor returns (creating if needed) the page table for file.
func (c *cache) slotsFor(file uint32) *fileSlots {
	if c.lastSlots != nil && c.lastFile == file {
		return c.lastSlots
	}
	fs := c.files[file]
	if fs == nil {
		fs = &fileSlots{}
		c.files[file] = fs
	}
	c.lastFile, c.lastSlots = file, fs
	return fs
}

// peek returns the slot for key, or nil when nothing is indexed there.
func (c *cache) peek(key blockKey) *cacheSlot {
	var fs *fileSlots
	if c.lastSlots != nil && c.lastFile == key.file {
		fs = c.lastSlots
	} else {
		fs = c.files[key.file]
		if fs == nil {
			return nil
		}
		c.lastFile, c.lastSlots = key.file, fs
	}
	pg := fs.page(key.idx >> slotPageShift)
	if pg == nil {
		return nil
	}
	return &pg.slots[key.idx&slotPageMask]
}

// ensure returns the slot for key, allocating its page as needed.
func (c *cache) ensure(key blockKey) (*slotPage, *cacheSlot) {
	fs := c.slotsFor(key.file)
	p := key.idx >> slotPageShift
	var pg *slotPage
	if p >= 0 && p < maxSpinePages {
		for int64(len(fs.pages)) <= p {
			fs.pages = append(fs.pages, nil)
		}
		pg = fs.pages[p]
		if pg == nil {
			pg = c.newPage()
			fs.pages[p] = pg
		}
	} else {
		if fs.overflow == nil {
			fs.overflow = make(map[int64]*slotPage)
		}
		pg = fs.overflow[p]
		if pg == nil {
			pg = c.newPage()
			fs.overflow[p] = pg
		}
	}
	return pg, &pg.slots[key.idx&slotPageMask]
}

// newPage takes a zeroed page from the free-list or allocates one.
func (c *cache) newPage() *slotPage {
	pg := c.pageFree
	if pg != nil {
		c.pageFree = pg.freeNext
		pg.freeNext = nil
		return pg
	}
	return &slotPage{}
}

// slotAt returns the page and slot for key, which must be indexed (its
// page exists): the fast accessor for paths operating on known-present
// entries (eviction, pending-clear after insert).
func (c *cache) slotAt(key blockKey) (*slotPage, *cacheSlot) {
	fs := c.slotsFor(key.file)
	pg := fs.page(key.idx >> slotPageShift)
	return pg, &pg.slots[key.idx&slotPageMask]
}

// clearSlot empties one side of a slot and recycles the page when its
// last entry clears. Pages on the free-list are always fully zeroed.
func (c *cache) clearSlot(key blockKey, pg *slotPage, sl *cacheSlot) {
	if sl.b != nil || sl.f != nil {
		return
	}
	pg.used--
	if pg.used == 0 {
		fs := c.slotsFor(key.file)
		p := key.idx >> slotPageShift
		if p >= 0 && p < int64(len(fs.pages)) {
			fs.pages[p] = nil
		} else {
			delete(fs.overflow, p)
		}
		pg.freeNext = c.pageFree
		c.pageFree = pg
	}
}

// lookup returns the resident block and in-flight fetch indexed at key
// (either or both may be nil) in one table walk.
func (c *cache) lookup(key blockKey) (*block, *fetch) {
	if sl := c.peek(key); sl != nil {
		return sl.b, sl.f
	}
	return nil, nil
}

// resident returns the block for key, or nil.
func (c *cache) resident(key blockKey) *block {
	if sl := c.peek(key); sl != nil {
		return sl.b
	}
	return nil
}

// pendingAt returns the in-flight fetch covering key, or nil.
func (c *cache) pendingAt(key blockKey) *fetch {
	if sl := c.peek(key); sl != nil {
		return sl.f
	}
	return nil
}

// setPending registers f as the in-flight fetch for key.
func (c *cache) setPending(key blockKey, f *fetch) {
	pg, sl := c.ensure(key)
	if sl.b == nil && sl.f == nil {
		pg.used++
	}
	sl.f = f
}

// clearPending removes key's in-flight fetch registration.
func (c *cache) clearPending(key blockKey) {
	pg, sl := c.slotAt(key)
	sl.f = nil
	c.clearSlot(key, pg, sl)
}

// ownerIndex returns pid's entry in the ownership table, adding it if
// needed.
func (c *cache) ownerIndex(pid uint32) int {
	for i := range c.owned {
		if c.owned[i].pid == pid {
			return i
		}
	}
	c.owned = append(c.owned, ownerCount{pid: pid, clean: cleanSet{lru: blockList{which: lruList}}})
	return len(c.owned) - 1
}

// setOf returns the clean set holding b: the cache's, or under a
// per-process limit its owner's, so that the limit's evictions find
// the owner's least recently used block directly.
func (c *cache) setOf(b *block) *cleanSet {
	if c.limit == 0 {
		return &c.clean
	}
	return &c.owned[b.ownerIdx].clean
}

// ownersVictim returns the least recently used clean, unpinned block of
// the whole cache under a per-process limit: the oldest of the owners'
// victims.
func (c *cache) ownersVictim() *block {
	var v *block
	for i := range c.owned {
		if b := c.owned[i].clean.victim(); b != nil && (v == nil || b.stamp < v.stamp) {
			v = b
		}
	}
	return v
}

// blockRangeInto appends the keys covering [off, off+length) of file to
// buf[:0] and returns the extended slice; callers keep the returned slice
// as their scratch buffer so steady-state requests allocate nothing.
func (c *cache) blockRangeInto(buf []blockKey, file uint32, off, length int64) []blockKey {
	buf = buf[:0]
	if length <= 0 {
		return append(buf, blockKey{file, off / c.blockSize})
	}
	first := off / c.blockSize
	last := (off + length - 1) / c.blockSize
	for i := first; i <= last; i++ {
		buf = append(buf, blockKey{file, i})
	}
	return buf
}

// blockRange returns the keys covering [off, off+length) of file in a
// fresh slice (test and tooling convenience; hot paths use
// blockRangeInto).
func (c *cache) blockRange(file uint32, off, length int64) []blockKey {
	return c.blockRangeInto(nil, file, off, length)
}

// touch makes a resident block the most recently used and reports
// whether it was an unreferenced prefetch.
func (c *cache) touch(b *block) (wasPrefetch bool) {
	c.restamp(b)
	wasPrefetch = b.prefetched
	b.prefetched = false
	return wasPrefetch
}

// restamp gives b the newest stamp and moves it to the back of its
// clean set's lru; a dirty block off the set stays off until it is
// clean again. It is touch's body, kept out of line so that touch
// inlines into its callers.
func (c *cache) restamp(b *block) {
	c.clock++
	b.stamp = c.clock
	s := c.setOf(b)
	switch {
	case b.pos == onLRU:
		if s.lru.back != b {
			s.lru.remove(b)
			s.lru.pushBack(b)
		}
	case b.pos > 0:
		s.heapRemove(b)
		s.pushBack(b)
	}
}

// used returns occupied plus reserved slots.
func (c *cache) used() int { return c.nResident + c.reserved }

// unreserve releases n reserved slots without filling them — the path a
// failed fetch takes: its acquire reserved slots that no insert will
// ever consume, and without this release they would leak from the
// cache's capacity for the rest of the run.
func (c *cache) unreserve(n int) { c.reserved -= n }

// evict removes a clean, unpinned block and recycles its struct.
func (c *cache) evict(b *block) {
	if b.dirty || b.pinned {
		panic("sim: evicting dirty or pinned block")
	}
	if b.prefetched {
		c.stats.WastedPrefetch++
	}
	if s := c.setOf(b); b.pos == onLRU {
		s.lru.remove(b) // the common case, without a call
	} else {
		s.remove(b)
	}
	pg, sl := c.slotAt(b.key)
	sl.b = nil
	c.clearSlot(b.key, pg, sl)
	c.nResident--
	c.owned[b.ownerIdx].n--
	b.freeNext = c.free
	c.free = b
}

// canEverFit reports whether a request for n slots by pid could ever be
// satisfied: callers bypass the cache entirely when it cannot.
func (c *cache) canEverFit(pid uint32, n int) bool {
	if n > c.capacity {
		return false
	}
	if c.limit > 0 && pid != 0 && n > c.limit {
		return false
	}
	return true
}

// acquire reserves n slots for pid, evicting clean blocks as needed. It
// reports failure (without side effects that matter: evictions performed
// before failing are harmless) when dirty or pinned blocks prevent it, in
// which case the caller must wait for the flusher.
func (c *cache) acquire(pid uint32, n int) bool {
	if !c.canEverFit(pid, n) {
		return false
	}
	// Per-process ownership cap (§6.2's counterproductive limit): evict
	// the process's own clean blocks first.
	if c.limit > 0 && pid != 0 {
		o := &c.owned[c.ownerIndex(pid)]
		for o.n+n > c.limit {
			v := o.clean.victim()
			if v == nil {
				return false
			}
			c.evict(v)
		}
	}
	for c.used()+n > c.capacity {
		var v *block
		if c.limit == 0 {
			v = c.clean.victim()
		} else {
			v = c.ownersVictim()
		}
		if v == nil {
			return false
		}
		c.evict(v)
	}
	c.reserved += n
	return true
}

// insert makes key resident (filling a reserved slot) or, if already
// resident, just touches it. Newly inserted blocks land at the MRU end.
// now stamps dirty blocks for delayed-write aging. Block structs come
// from the free-list when available and are otherwise carved from
// slabs, so steady-state insert allocates nothing.
func (c *cache) insert(key blockKey, owner uint32, dirty, prefetched bool, now int64) *block {
	pg, sl := c.ensure(key)
	if b := sl.b; b != nil {
		// Already resident (e.g. a write raced an in-flight fetch); the
		// reservation is released, existing state wins, dirtiness merges.
		c.reserved--
		c.touch(b)
		if dirty && !b.dirty {
			c.markDirty(b, now)
		}
		return b
	}
	oi := c.ownerIndex(owner)
	c.owned[oi].n++
	c.clock++
	// A recycled block was evicted clean and unpinned, and its other
	// fields are written before they are read again (links and pos on
	// joining a list, dirtyAt by markDirty), so it is not zeroed.
	b := c.newBlock()
	b.key, b.owner, b.ownerIdx, b.stamp = key, owner, int32(oi), c.clock
	b.prefetched = prefetched
	c.setOf(b).pushBack(b)
	if sl.f == nil {
		pg.used++
	}
	sl.b = b
	c.nResident++
	c.reserved--
	if dirty {
		c.markDirty(b, now)
	}
	return b
}

// blockSlabSize is the number of block structs allocated at once.
const blockSlabSize = 64

// newBlock returns a recycled block struct or the next one of a slab.
func (c *cache) newBlock() *block {
	if b := c.free; b != nil {
		c.free = b.freeNext
		return b
	}
	if len(c.slab) == 0 {
		c.slab = make([]block, blockSlabSize)
	}
	b := &c.slab[0]
	c.slab = c.slab[1:]
	return b
}

// wireVolumes connects the cache's per-volume dirty accounting to the
// disk's placement. Called once at simulator construction, before any
// block can be dirtied.
func (c *cache) wireVolumes(d *disk) {
	c.d = d
	if n := len(d.vols); n <= len(c.dirtyByVolInline) {
		c.dirtyByVol = c.dirtyByVolInline[:n]
	} else {
		c.dirtyByVol = make([]int, n)
	}
}

// homeVol returns the volume owning b's first byte.
func (c *cache) homeVol(b *block) int {
	return c.d.homeVolume(b.key.file, b.key.idx*c.blockSize)
}

// markDirty queues a block for the flusher. The block stays where it is
// in its clean set until a victim search passes it.
func (c *cache) markDirty(b *block, now int64) {
	if b.dirty {
		return
	}
	b.dirty = true
	b.dirtyAt = now
	c.dirty.pushBack(b)
	if c.d != nil {
		c.dirtyByVol[c.homeVol(b)]++
	}
}

// oldestDirty returns the longest-dirty block, or nil.
func (c *cache) oldestDirty() *block { return c.dirty.front }

// markClean is called by the flusher when a block reaches disk.
func (c *cache) markClean(b *block) {
	if !b.dirty {
		return
	}
	b.dirty = false
	c.dirty.remove(b)
	if b.pos == offSet {
		c.setOf(b).cleaned(b)
	}
	if c.d != nil {
		c.dirtyByVol[c.homeVol(b)]--
	}
}

// dirtyCount returns the number of dirty blocks.
func (c *cache) dirtyCount() int { return c.dirty.n }

// dirtyRunFrom returns first and its contiguous dirty, unpinned
// successors in the same file, up to maxRun blocks — one flushable
// write-back run. The caller pins the run if it issues it; the returned
// slice is reused by the next call.
func (c *cache) dirtyRunFrom(first *block, maxRun int) []*block {
	run := append(c.runBuf[:0], first)
	for len(run) < maxRun {
		next := c.resident(blockKey{first.key.file, first.key.idx + int64(len(run))})
		if next == nil || !next.dirty || next.pinned {
			break
		}
		run = append(run, next)
	}
	c.runBuf = run
	return run
}
