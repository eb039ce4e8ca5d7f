package serve

import "container/list"

// lru is the per-shard admission cache: binary request key (appendCacheKey)
// → response. It is plain single-goroutine LRU (each shard owns one), so hit,
// miss and eviction order are fully determined by the request sequence.
// Keys embed the model version, so a hot-reload naturally invalidates: the
// first post-reload request for any input misses and recomputes, and stale
// versions age out through the LRU tail. get takes the key as bytes and
// indexes with items[string(key)], which the compiler does not allocate
// for, so a hit costs no allocation; only put stores a key string.
type lru struct {
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruItem struct {
	key  string
	resp Response
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, ll: list.New(), items: make(map[string]*list.Element, capacity)}
}

func (c *lru) get(key []byte) (Response, bool) {
	el, ok := c.items[string(key)]
	if !ok {
		return Response{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem).resp, true
}

func (c *lru) put(key string, resp Response) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruItem).resp = resp
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruItem{key: key, resp: resp})
	for c.ll.Len() > c.cap {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*lruItem).key)
	}
}

func (c *lru) len() int { return c.ll.Len() }
