// Package hypervisor assembles the ESX-like host: datastores carved from
// storage arrays, virtual machines with virtual SCSI disks, and the
// per-disk characterization services and tracers attached to the I/O path.
// It is the composition root the paper's Figure 1 sketches — guest I/O
// enters a virtual disk, passes the observation layer, and lands on the
// physical device model.
package hypervisor

import (
	"fmt"
	"sort"

	"vscsistats/internal/core"
	"vscsistats/internal/simclock"
	"vscsistats/internal/storage"
	"vscsistats/internal/trace"
	"vscsistats/internal/vscsi"
)

// Host is one virtualization host.
type Host struct {
	eng        *simclock.Engine
	datastores map[string]*datastore
	vms        map[string]*VM
	registry   *core.Registry
}

type datastore struct {
	array *storage.Array
	alloc *storage.Allocator
}

// NewHost creates an empty host on the given engine with its own registry.
func NewHost(eng *simclock.Engine) *Host {
	return &Host{
		eng:        eng,
		datastores: make(map[string]*datastore),
		vms:        make(map[string]*VM),
		registry:   core.NewRegistry(),
	}
}

// Engine returns the host's simulation engine.
func (h *Host) Engine() *simclock.Engine { return h.eng }

// Registry returns the host's stats registry — the handle behind the
// paper's command-line utility for enabling and disabling collection.
func (h *Host) Registry() *core.Registry { return h.registry }

// AddDatastore provisions a storage array as a named datastore.
func (h *Host) AddDatastore(name string, cfg storage.ArrayConfig) *storage.Array {
	if _, dup := h.datastores[name]; dup {
		panic(fmt.Sprintf("hypervisor: duplicate datastore %q", name))
	}
	a := storage.NewArray(h.eng, cfg)
	h.datastores[name] = &datastore{array: a, alloc: storage.NewAllocator(a)}
	return a
}

// Datastore returns the named datastore's array, or nil.
func (h *Host) Datastore(name string) *storage.Array {
	if ds, ok := h.datastores[name]; ok {
		return ds.array
	}
	return nil
}

// CreateVM registers a new virtual machine.
func (h *Host) CreateVM(name string) *VM {
	if _, dup := h.vms[name]; dup {
		panic(fmt.Sprintf("hypervisor: duplicate VM %q", name))
	}
	vm := &VM{host: h, name: name, disks: make(map[string]*Vdisk)}
	h.vms[name] = vm
	return vm
}

// VM returns the named virtual machine, or nil.
func (h *Host) VM(name string) *VM {
	return h.vms[name]
}

// VMs lists the host's virtual machines sorted by name.
func (h *Host) VMs() []*VM {
	out := make([]*VM, 0, len(h.vms))
	for _, vm := range h.vms {
		out = append(out, vm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// DiskCounters reports the vSCSI-layer lifetime counters of one virtual
// disk (telemetry.DiskStatsSource). The counters themselves are atomics,
// so this is safe to call while simulations run, as long as
// the topology (CreateVM/AddDisk) is not mutated concurrently.
func (h *Host) DiskCounters(vmName, diskName string) (issued, completed, errored uint64, inflight int64, ok bool) {
	vm := h.vms[vmName]
	if vm == nil {
		return 0, 0, 0, 0, false
	}
	vd := vm.disks[diskName]
	if vd == nil {
		return 0, 0, 0, 0, false
	}
	d := vd.Disk
	return d.Issued(), d.Completed(), d.Errored(), int64(d.Inflight()), true
}

// VM is a virtual machine: a named collection of virtual disks.
type VM struct {
	host  *Host
	name  string
	disks map[string]*Vdisk
}

// Name returns the VM's name.
func (vm *VM) Name() string { return vm.name }

// Vdisk bundles a virtual disk with its observation attachments.
type Vdisk struct {
	Disk      *vscsi.Disk
	Collector *core.Collector
	Tracer    *trace.Tracer
	LUN       *storage.LUN
}

// DiskSpec configures a new virtual disk.
type DiskSpec struct {
	// Name is the virtual device name, e.g. "scsi0:0".
	Name string
	// Datastore selects which array backs the disk.
	Datastore string
	// CapacitySectors is the provisioned size.
	CapacitySectors uint64
	// MaxActive bounds commands concurrently outstanding to the backend
	// (0 = unlimited), mirroring the per-VM per-target queue of §2.
	MaxActive int
	// TraceCapacity, if positive, attaches a disabled command tracer
	// retaining that many entries; zero attaches none.
	TraceCapacity int
}

// AddDisk provisions a virtual disk on a datastore, attaches a (disabled)
// stats collector and optional tracer, and registers the collector.
func (vm *VM) AddDisk(spec DiskSpec) (*Vdisk, error) {
	ds, ok := vm.host.datastores[spec.Datastore]
	if !ok {
		return nil, fmt.Errorf("hypervisor: unknown datastore %q", spec.Datastore)
	}
	if _, dup := vm.disks[spec.Name]; dup {
		return nil, fmt.Errorf("hypervisor: VM %q already has disk %q", vm.name, spec.Name)
	}
	if spec.CapacitySectors == 0 {
		return nil, fmt.Errorf("hypervisor: disk %q needs a capacity", spec.Name)
	}
	if ds.alloc.Remaining() < spec.CapacitySectors {
		return nil, fmt.Errorf("hypervisor: datastore %q has %d sectors free, %d requested",
			spec.Datastore, ds.alloc.Remaining(), spec.CapacitySectors)
	}
	lun := ds.alloc.Alloc(spec.CapacitySectors)
	disk := vscsi.NewDisk(vm.host.eng, lun, vscsi.DiskConfig{
		VM:              vm.name,
		Name:            spec.Name,
		CapacitySectors: spec.CapacitySectors,
		MaxActive:       spec.MaxActive,
	})
	col := core.NewCollector(vm.name, spec.Name)
	disk.AddObserver(col)
	vm.host.registry.Register(col)
	vd := &Vdisk{Disk: disk, Collector: col, LUN: lun}
	if spec.TraceCapacity > 0 {
		vd.Tracer = trace.NewTracer(spec.TraceCapacity)
		disk.AddObserver(vd.Tracer)
	}
	vm.disks[spec.Name] = vd
	return vd, nil
}

// Disk returns the named virtual disk, or nil.
func (vm *VM) Disk(name string) *Vdisk {
	return vm.disks[name]
}

// Disks lists the VM's virtual disks sorted by name.
func (vm *VM) Disks() []*Vdisk {
	out := make([]*Vdisk, 0, len(vm.disks))
	for _, vd := range vm.disks {
		out = append(out, vd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Disk.Name() < out[j].Disk.Name() })
	return out
}
