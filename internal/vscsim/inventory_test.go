package vscsim

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestInventoryDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Hosts: 32, VMsPerHost: 8, DisksPerVM: 2}
	a, b := NewInventory(cfg), NewInventory(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different inventories")
	}
	if got := len(a.Hosts); got != 32 {
		t.Fatalf("hosts = %d, want 32", got)
	}
	names := map[string]bool{}
	disks := 0
	for _, h := range a.Hosts {
		for _, vm := range h.VMs {
			disks += vm.Disks
			if names[vm.Name] {
				t.Fatalf("duplicate VM name %q", vm.Name)
			}
			names[vm.Name] = true
			if vm.Intensity <= 0 || vm.Intensity > paretoClamp {
				t.Fatalf("VM %q intensity %v out of range", vm.Name, vm.Intensity)
			}
		}
	}
	if len(names) != 256 || disks != 512 {
		t.Fatalf("VMs = %d, disks = %d; want 256 and 512", len(names), disks)
	}
}

func TestInventorySeedsDiffer(t *testing.T) {
	a := NewInventory(Config{Seed: 1, Hosts: 16, VMsPerHost: 8})
	b := NewInventory(Config{Seed: 2, Hosts: 16, VMsPerHost: 8})
	if reflect.DeepEqual(a.PersonalityMix(), b.PersonalityMix()) {
		// The mixes could collide by chance at tiny sizes, but at 128 VMs
		// across six personalities a full collision means the seed is not
		// reaching the draws.
		t.Fatalf("different seeds produced identical personality mixes: %v", a.PersonalityMix())
	}
}

func TestInventoryHeavyTail(t *testing.T) {
	inv := NewInventory(Config{Seed: 7, Hosts: 64, VMsPerHost: 16})
	var in []float64
	for _, h := range inv.Hosts {
		for _, vm := range h.VMs {
			in = append(in, vm.Intensity)
		}
	}
	sort.Float64s(in)
	median := in[len(in)/2]
	max := in[len(in)-1]
	if max < 8*median {
		t.Fatalf("intensity not heavy-tailed: median %v, max %v", median, max)
	}
	if mix := inv.PersonalityMix(); len(mix) < 5 {
		t.Fatalf("only %d personalities drawn at 1024 VMs: %v", len(mix), mix)
	}
}

func TestReferenceCatalogSeparatesPersonalities(t *testing.T) {
	cat, err := ReferenceCatalog(99)
	if err != nil {
		t.Fatal(err)
	}
	// Probe each personality with a different seed and intensity than the
	// references used; the catalog must still rank it first.
	inv := NewInventory(Config{Seed: 123, Hosts: 1, VMsPerHost: 1})
	for _, fp := range inv.Personalities {
		probe := inv
		probe.Hosts[0].VMs[0].Personality = fp.Name
		probe.Hosts[0].VMs[0].Intensity = 4
		sim, err := New(probe, SimConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RunVirtual(10 * time.Minute); err != nil {
			t.Fatal(err)
		}
		snaps := sim.hosts[0].host.Registry().Snapshots()
		matches, err := cat.Classify(snaps[0])
		if err != nil {
			t.Fatalf("classify %s: %v", fp.Name, err)
		}
		if matches[0].Name != fp.Name {
			t.Errorf("probe %q classified as %q (distance %.3f; own distance in ranking: %v)",
				fp.Name, matches[0].Name, matches[0].Score, matches)
		}
	}
}
