package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// Registry tracks the collectors of every virtual disk on a host and powers
// the paper's command-line utility ("we've added a command line utility to
// enable and disable these stats"): collectors are addressed by VM and disk
// name, and can be toggled individually or en masse.
//
// A Registry is safe for concurrent use: lookups and listings take a read
// lock, so any number of monitoring goroutines (e.g. httpstats handlers)
// can poll while simulations register, unregister and toggle collectors.
// Several hosts may share one registry: Register each host's collectors
// into it.
type Registry struct {
	mu         sync.RWMutex
	collectors map[diskKey]*Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{collectors: make(map[diskKey]*Collector)}
}

// diskKey addresses a collector. A struct, not a joined string: VM and
// disk names come from trace files and may hold any separator.
type diskKey struct{ vm, disk string }

// Register adds a collector. Registering a second collector for the same
// (vm, disk) pair is a configuration error and panics.
func (r *Registry) Register(c *Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := diskKey{c.VM(), c.Disk()}
	if _, dup := r.collectors[k]; dup {
		panic(fmt.Sprintf("core: duplicate collector for %s/%s", k.vm, k.disk))
	}
	r.collectors[k] = c
}

// Lookup returns the collector for (vm, disk), or nil.
func (r *Registry) Lookup(vm, disk string) *Collector {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.collectors[diskKey{vm, disk}]
}

// List returns all registered collectors sorted by VM then disk name.
func (r *Registry) List() []*Collector {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Collector, 0, len(r.collectors))
	for _, c := range r.collectors {
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b *Collector) int {
		return cmp.Or(cmp.Compare(a.vm, b.vm), cmp.Compare(a.disk, b.disk))
	})
	return out
}

// Snapshots returns a snapshot per enabled-at-least-once collector, in List
// order.
func (r *Registry) Snapshots() []*Snapshot { return r.SnapshotsInto(nil) }

// SnapshotsInto is Snapshots capturing into the snapshots of spare, and
// into spare's array, before it allocates any: the one reuse of a set its
// caller alone holds (Collector.CaptureInto).
func (r *Registry) SnapshotsInto(spare []*Snapshot) []*Snapshot {
	out := spare[:0]
	for _, c := range r.List() {
		var s *Snapshot
		if n := len(out); n < len(spare) {
			s = spare[n]
		} else {
			s = new(Snapshot)
		}
		if c.CaptureInto(s) {
			out = append(out, s)
		}
	}
	return out
}
