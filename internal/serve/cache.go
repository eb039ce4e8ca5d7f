package serve

// lru is the per-shard admission cache: binary request key (appendCacheKey)
// → response. It is plain single-goroutine LRU (each shard owns one), so hit,
// miss and eviction order are fully determined by the request sequence.
// Keys embed the model version, so a hot-reload naturally invalidates: the
// first post-reload request for any input misses and recomputes, and stale
// versions age out through the LRU tail. The recency list is linked by
// index through one array of at most cap entries, and get indexes the map
// with items[string(key)], which the compiler does not allocate for, so a
// hit costs no allocation; only put stores a key string.
type lru struct {
	cap        int
	items      map[string]int32 // key → index into ents
	ents       []lruEntry
	head, tail int32 // most and least recently used; -1 when empty
}

type lruEntry struct {
	key        string
	resp       Response
	version    int32 // resp's slot in shardResult.versions
	prev, next int32 // recency neighbours; -1 at the ends
}

// newLRU returns an empty cache of capacity entries; capacity must be
// positive and fit an int32.
func newLRU(capacity int) *lru {
	return &lru{
		cap:   capacity,
		items: make(map[string]int32, capacity),
		ents:  make([]lruEntry, 0, capacity),
		head:  -1,
		tail:  -1,
	}
}

// get returns the entry cached under key, marked most recently used, or
// nil. The entry stays valid until the next put.
func (c *lru) get(key []byte) *lruEntry {
	i, ok := c.items[string(key)]
	if !ok {
		return nil
	}
	c.moveToFront(i)
	return &c.ents[i]
}

// put caches resp under key as the most recently used entry, evicting the
// least recently used one when the cache is full.
func (c *lru) put(key string, resp Response, version int32) {
	if i, ok := c.items[key]; ok {
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
		delete(c.items, c.ents[i].key)
	}
	c.ents[i] = lruEntry{key: key, resp: resp, version: version}
	c.pushFront(i)
	c.items[key] = i
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
