package fs

import "container/list"

// pageKey identifies one filesystem block of one file.
type pageKey struct {
	file  int
	block int64
}

// pageCache is the guest OS buffer cache: an LRU over filesystem blocks
// with dirty tracking for buffered writes. Disk traffic the hypervisor
// observes is exactly the miss and writeback traffic of this cache.
type pageCache struct {
	capacity int // pages; 0 disables caching entirely
	pages    map[pageKey]*list.Element
	lru      *list.List // front = most recent

	hits, misses uint64
}

type pageEntry struct {
	key   pageKey
	dirty bool
}

func newPageCache(capacityBytes, pageBytes int64) *pageCache {
	cap := 0
	if pageBytes > 0 {
		cap = int(capacityBytes / pageBytes)
	}
	return &pageCache{
		capacity: cap,
		pages:    make(map[pageKey]*list.Element),
		lru:      list.New(),
	}
}

// lookup reports residency of a single block, promoting it.
func (c *pageCache) lookup(k pageKey) bool {
	if el, ok := c.pages[k]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		return true
	}
	c.misses++
	return false
}

// insert makes a block resident. Evicted dirty pages are returned so the
// caller can schedule their writeback (the guest would, too).
func (c *pageCache) insert(k pageKey, dirty bool) (evictedDirty []pageKey) {
	if c.capacity == 0 {
		return nil
	}
	if el, ok := c.pages[k]; ok {
		c.lru.MoveToFront(el)
		if dirty {
			el.Value.(*pageEntry).dirty = true
		}
		return nil
	}
	for len(c.pages) >= c.capacity {
		oldest := c.lru.Back()
		e := oldest.Value.(*pageEntry)
		if e.dirty {
			evictedDirty = append(evictedDirty, e.key)
		}
		c.lru.Remove(oldest)
		delete(c.pages, e.key)
	}
	c.pages[k] = c.lru.PushFront(&pageEntry{key: k, dirty: dirty})
	return evictedDirty
}

// clean marks a block clean if resident.
func (c *pageCache) clean(k pageKey) {
	if el, ok := c.pages[k]; ok {
		el.Value.(*pageEntry).dirty = false
	}
}

// dirtyPages returns all dirty block keys (unordered beyond LRU order) and
// marks them clean; the caller owns writing them back.
func (c *pageCache) dirtyPages() []pageKey {
	var out []pageKey
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*pageEntry)
		if e.dirty {
			out = append(out, e.key)
			e.dirty = false
		}
	}
	return out
}
