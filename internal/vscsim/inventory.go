// Package vscsim is the datacenter control-plane simulator: the vcsim
// pattern applied to vSCSI characterization. From a single seed it
// generates a deterministic synthetic inventory (hosts × VMs × disks, each
// VM drawn from the workload personality population with heavy-tailed
// per-VM intensity) and runs every host as a wall-paced simulated world —
// its own discrete-event engine, hypervisor, open-loop workload generators
// and fleet agent — multiplexing a thousand and more hosts into one OS
// process against a real sharded aggregator. The simulator exists to make
// the paper's "cheap enough to leave on for every VM" claim testable at
// datacenter scale: everything above the guest (agent wire codec,
// aggregator sharding, segment log, classification) runs the production
// code path; only the guests are synthetic.
package vscsim

import (
	"fmt"
	"math"
	"math/rand"

	"vscsistats/internal/simclock"
	"vscsistats/internal/workload"
)

// Config shapes a generated inventory. Zero values take the documented
// defaults.
type Config struct {
	// Seed determines everything: host and VM names are positional, and
	// every personality draw, intensity draw and per-disk workload RNG
	// derives from it. Two inventories from the same Config are
	// bit-identical (reflect.DeepEqual).
	Seed int64
	// Hosts is the number of simulated hosts (default 4).
	Hosts int
	// VMsPerHost is the number of VMs on each host (default 8).
	VMsPerHost int
	// DisksPerVM is the number of virtual disks per VM (default 1).
	DisksPerVM int
	// Intensity scales every VM's drawn intensity (default 1) — the one
	// knob that makes the whole datacenter hotter or colder without
	// changing its shape.
	Intensity float64
	// Personalities overrides the workload population (default: the
	// built-in workload.FleetPersonalities()).
	Personalities []workload.FleetPersonality
}

func (c Config) withDefaults() Config {
	if c.Hosts <= 0 {
		c.Hosts = 4
	}
	if c.VMsPerHost <= 0 {
		c.VMsPerHost = 8
	}
	if c.DisksPerVM <= 0 {
		c.DisksPerVM = 1
	}
	if c.Intensity <= 0 {
		c.Intensity = 1
	}
	if len(c.Personalities) == 0 {
		c.Personalities = workload.FleetPersonalities()
	}
	return c
}

// Inventory is a generated synthetic datacenter.
type Inventory struct {
	Seed          int64
	Hosts         []HostSpec
	Personalities []workload.FleetPersonality
}

// HostSpec is one simulated host.
type HostSpec struct {
	// Name is the host's fleet identity, e.g. "esx-0007".
	Name string
	// Seed drives the host's storage model.
	Seed int64
	VMs  []VMSpec
}

// VMSpec is one simulated VM: a personality at an intensity.
type VMSpec struct {
	// Name is globally unique across the inventory, e.g. "esx-0007-vm03".
	Name string
	// Personality names the VM's workload class in the population.
	Personality string
	// Intensity is the VM's rate multiplier, drawn from a bounded Pareto
	// distribution so a generated fleet is mostly idle with a heavy tail
	// carrying most of the traffic (the shape the Alibaba cloud
	// block-storage study measured).
	Intensity float64
	// Disks is the number of virtual disks.
	Disks int
	// Seed drives the VM's workload RNGs (one derived seed per disk).
	Seed int64
}

// Bounded Pareto intensity draw: scale 0.25, shape 1.1 (heavy-tailed,
// infinite variance before clamping), clamped at 40× so one VM cannot
// starve the simulation. Mean ≈ 1.25.
const (
	paretoScale = 0.25
	paretoShape = 1.1
	paretoClamp = 40.0
)

// NewInventory generates the synthetic datacenter described by cfg.
func NewInventory(cfg Config) *Inventory {
	cfg = cfg.withDefaults()
	rng := simclock.NewRand(cfg.Seed)
	inv := &Inventory{
		Seed:          cfg.Seed,
		Hosts:         make([]HostSpec, cfg.Hosts),
		Personalities: cfg.Personalities,
	}
	total := 0
	for _, p := range cfg.Personalities {
		if p.Weight <= 0 {
			panic(fmt.Sprintf("vscsim: personality %q has non-positive weight", p.Name))
		}
		total += p.Weight
	}
	for h := range inv.Hosts {
		host := HostSpec{
			Name: fmt.Sprintf("esx-%04d", h+1),
			Seed: deriveSeed(cfg.Seed, uint64(h)),
			VMs:  make([]VMSpec, cfg.VMsPerHost),
		}
		for v := range host.VMs {
			host.VMs[v] = VMSpec{
				Name:        fmt.Sprintf("%s-vm%02d", host.Name, v+1),
				Personality: pickPersonality(rng, cfg.Personalities, total),
				Intensity:   cfg.Intensity * paretoIntensity(rng),
				Disks:       cfg.DisksPerVM,
				Seed:        deriveSeed(cfg.Seed, uint64(h), uint64(v)),
			}
		}
		inv.Hosts[h] = host
	}
	return inv
}

func pickPersonality(rng *rand.Rand, pop []workload.FleetPersonality, total int) string {
	n := rng.Intn(total)
	for _, p := range pop {
		if n < p.Weight {
			return p.Name
		}
		n -= p.Weight
	}
	return pop[len(pop)-1].Name
}

// paretoIntensity draws from the bounded Pareto via inverse transform.
func paretoIntensity(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	x := paretoScale * math.Pow(u, -1/paretoShape)
	if x > paretoClamp {
		x = paretoClamp
	}
	return x
}

// deriveSeed maps (master seed, index path) to an independent-looking
// sub-seed via a splitmix64-style finalizer, so every entity gets its own
// RNG stream while staying a pure function of the master seed.
func deriveSeed(seed int64, path ...uint64) int64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, p := range path {
		h += 0x9e3779b97f4a7c15 + p
		h = mix64(h)
	}
	return int64(h)
}

func mix64(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// PersonalityMix counts VMs per personality — the realized draw of the
// population weights.
func (inv *Inventory) PersonalityMix() map[string]int {
	mix := make(map[string]int)
	for _, h := range inv.Hosts {
		for _, vm := range h.VMs {
			mix[vm.Personality]++
		}
	}
	return mix
}

func (inv *Inventory) personality(name string) (workload.FleetPersonality, bool) {
	for _, p := range inv.Personalities {
		if p.Name == name {
			return p, true
		}
	}
	return workload.FleetPersonality{}, false
}
