package storage

import "container/list"

// cacheLineSectors is the array cache line size: 64 KB, a typical array
// track/page size.
const cacheLineSectors = 128

// Cache is an LRU array cache over fixed 64 KB lines, with hit/miss
// accounting. It backs both the read cache ("an active read cache (2.5GB)"
// for the CX3, §5.3) and write-back absorption (§3.4's "write-back cache
// strategy").
type Cache struct {
	capacity int // lines; 0 means the cache is disabled
	lines    map[uint64]*list.Element
	lru      *list.List // front = most recent; values are line keys

	hits, misses uint64
	dirty        map[uint64]bool // lines written but not yet destaged
}

// NewCache returns a cache holding capacityBytes of 64 KB lines. A zero
// capacity models the paper's "read cache turned off" configuration: every
// lookup misses and Insert is a no-op.
func NewCache(capacityBytes int64) *Cache {
	return &Cache{
		capacity: int(capacityBytes / (cacheLineSectors * 512)),
		lines:    make(map[uint64]*list.Element),
		lru:      list.New(),
		dirty:    make(map[uint64]bool),
	}
}

// Enabled reports whether the cache has any capacity.
func (c *Cache) Enabled() bool { return c.capacity > 0 }

// Len returns the number of resident lines.
func (c *Cache) Len() int { return len(c.lines) }

func lineOf(lba uint64) uint64 { return lba / cacheLineSectors }

// Contains performs a lookup without accounting or LRU promotion.
func (c *Cache) Contains(lba uint64) bool {
	_, ok := c.lines[lineOf(lba)]
	return ok
}

// Lookup reports whether every line of the extent is resident, counting one
// hit or miss and promoting touched lines.
func (c *Cache) Lookup(lba uint64, sectors uint32) bool {
	if c.capacity == 0 {
		c.misses++
		return false
	}
	all := true
	for line := lineOf(lba); line <= lineOf(lba+uint64(sectors)-1); line++ {
		if el, ok := c.lines[line]; ok {
			c.lru.MoveToFront(el)
		} else {
			all = false
		}
	}
	if all {
		c.hits++
	} else {
		c.misses++
	}
	return all
}

// Insert makes the extent's lines resident, evicting LRU lines as needed.
func (c *Cache) Insert(lba uint64, sectors uint32) {
	if c.capacity == 0 || sectors == 0 {
		return
	}
	for line := lineOf(lba); line <= lineOf(lba+uint64(sectors)-1); line++ {
		if el, ok := c.lines[line]; ok {
			c.lru.MoveToFront(el)
			continue
		}
		for len(c.lines) >= c.capacity {
			oldest := c.lru.Back()
			c.lru.Remove(oldest)
			delete(c.lines, oldest.Value.(uint64))
		}
		c.lines[line] = c.lru.PushFront(line)
	}
}

// InsertAhead inserts readAhead lines following the extent — the array's
// sequential prefetch. It costs no simulated time by itself; callers charge
// prefetch transfer time to the triggering miss.
func (c *Cache) InsertAhead(lba uint64, sectors uint32, readAhead int) {
	if readAhead <= 0 {
		return
	}
	next := (lineOf(lba+uint64(sectors)-1) + 1) * cacheLineSectors
	c.Insert(next, uint32(readAhead*cacheLineSectors))
}

// Dirty returns the number of lines awaiting destage.
func (c *Cache) Dirty() int { return len(c.dirty) }

// MarkDirty marks the extent's lines dirty and reports how many were newly
// dirtied — re-writes of an already-dirty line are absorbed with no new
// destage work, which is a large part of why write-back caches win.
func (c *Cache) MarkDirty(lba uint64, sectors uint32) (newLines int) {
	for line := lineOf(lba); line <= lineOf(lba+uint64(sectors)-1); line++ {
		if !c.dirty[line] {
			c.dirty[line] = true
			newLines++
		}
	}
	return newLines
}

// Destaged clears the extent's dirty marks after a flush to disk.
func (c *Cache) Destaged(lba uint64, sectors uint32) {
	for line := lineOf(lba); line <= lineOf(lba+uint64(sectors)-1); line++ {
		delete(c.dirty, line)
	}
}
