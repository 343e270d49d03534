package core

import (
	"testing"
)

// TestRegistryDeterministicOrder: List and Snapshots must iterate in sorted
// (vm, disk) order regardless of registration order — the Prometheus
// exporter and the SSE streamer rely on stable iteration for diffable
// output, and Go map order would scramble it.
func TestRegistryDeterministicOrder(t *testing.T) {
	// Registration order deliberately scrambled, with names that sort
	// differently than they insert (vm10 < vm2 lexically).
	pairs := [][2]string{
		{"vm2", "scsi0:1"},
		{"vm10", "scsi0:0"},
		{"vm2", "scsi0:0"},
		{"alpha", "z"},
		{"vm10", "scsi0:1"},
		{"alpha", "a"},
	}
	want := [][2]string{
		{"alpha", "a"},
		{"alpha", "z"},
		{"vm10", "scsi0:0"},
		{"vm10", "scsi0:1"},
		{"vm2", "scsi0:0"},
		{"vm2", "scsi0:1"},
	}

	for trial := 0; trial < 3; trial++ {
		r := NewRegistry()
		// Rotate registration order across trials; map iteration inside
		// the registry must never leak into the listing order.
		for i := range pairs {
			p := pairs[(i+trial*2)%len(pairs)]
			r.Register(NewCollector(p[0], p[1]))
		}
		list := r.List()
		if len(list) != len(want) {
			t.Fatalf("trial %d: %d collectors listed, want %d", trial, len(list), len(want))
		}
		for i, c := range list {
			if c.VM() != want[i][0] || c.Disk() != want[i][1] {
				t.Errorf("trial %d: List()[%d] = %s/%s, want %s/%s",
					trial, i, c.VM(), c.Disk(), want[i][0], want[i][1])
			}
		}
		for _, c := range list {
			c.Enable()
		}
		snaps := r.Snapshots()
		if len(snaps) != len(want) {
			t.Fatalf("trial %d: %d snapshots, want %d", trial, len(snaps), len(want))
		}
		for i, s := range snaps {
			if s.VM != want[i][0] || s.Disk != want[i][1] {
				t.Errorf("trial %d: Snapshots()[%d] = %s/%s, want %s/%s",
					trial, i, s.VM, s.Disk, want[i][0], want[i][1])
			}
		}
	}
}
