package serve

// lru is the per-shard admission cache: request key id → response. A key
// id is the shard's dense interned id of appendCacheKey's bytes, so two
// requests share an entry exactly when they ask the same question of the
// same model version. It is plain single-goroutine LRU (each shard owns
// one), so hit, miss and eviction order are fully determined by the
// request sequence. Keys embed the model version, so a hot-reload
// naturally invalidates: the reloaded version's requests get fresh ids,
// miss and recompute, and stale entries age out through the LRU tail. The
// recency list is linked by index through one array of at most cap
// entries, and items maps an id to its entry by index, so a hit neither
// hashes nor allocates.
type lru struct {
	cap        int
	items      []int32 // key id → index into ents; -1 when not cached
	ents       []lruEntry
	head, tail int32 // most and least recently used; -1 when empty
}

type lruEntry struct {
	id         int32 // key id
	resp       Response
	version    int32 // resp's slot in shardResult.versions
	prev, next int32 // recency neighbours; -1 at the ends
}

// newLRU returns an empty cache of capacity entries; capacity must be
// positive and fit an int32.
func newLRU(capacity int) *lru {
	return &lru{
		cap:  capacity,
		ents: make([]lruEntry, 0, capacity),
		head: -1,
		tail: -1,
	}
}

// get returns the entry cached under key id, marked most recently used,
// or nil. The entry stays valid until the next put.
func (c *lru) get(id int32) *lruEntry {
	if int(id) >= len(c.items) {
		return nil
	}
	i := c.items[id]
	if i < 0 {
		return nil
	}
	c.moveToFront(i)
	return &c.ents[i]
}

// put caches resp under key id as the most recently used entry, evicting
// the least recently used one when the cache is full.
func (c *lru) put(id int32, resp Response, version int32) {
	c.items = growIDs(c.items, int(id)+1)
	if i := c.items[id]; i >= 0 {
		c.ents[i].resp, c.ents[i].version = resp, version
		c.moveToFront(i)
		return
	}
	var i int32
	if len(c.ents) < c.cap {
		i = int32(len(c.ents))
		c.ents = append(c.ents, lruEntry{})
	} else {
		i = c.tail
		c.unlink(i)
		c.items[c.ents[i].id] = -1
	}
	c.ents[i] = lruEntry{id: id, resp: resp, version: version}
	c.pushFront(i)
	c.items[id] = i
}

// growIDs extends a table indexed by key id to at least n ids, marking the
// new ones -1 (absent).
func growIDs(t []int32, n int) []int32 {
	for len(t) < n {
		t = append(t, -1)
	}
	return t
}

func (c *lru) moveToFront(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

func (c *lru) unlink(i int32) {
	e := &c.ents[i]
	if e.prev >= 0 {
		c.ents[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.ents[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *lru) pushFront(i int32) {
	e := &c.ents[i]
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.ents[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}
