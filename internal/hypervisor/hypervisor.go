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
	"strings"

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

// SharedDatastore is a handle to a datastore that several hosts mount at
// once — one array, one allocator, so LUNs never overlap across hosts.
type SharedDatastore struct {
	ds *datastore
}

// Array returns the shared volume's array.
func (sd *SharedDatastore) Array() *storage.Array { return sd.ds.array }

// ExportDatastore returns a shareable handle to one of this host's
// datastores (nil if unknown).
func (h *Host) ExportDatastore(name string) *SharedDatastore {
	ds, ok := h.datastores[name]
	if !ok {
		return nil
	}
	return &SharedDatastore{ds: ds}
}

// AddSharedDatastore mounts a datastore exported from another host — the
// way a SAN volume is visible from several initiators at once. This models
// §3.7's caveat that "even if only one VM is loaded up on an ESX host,
// isolation cannot be guaranteed since the target storage might be busy
// servicing requests from unrelated (perhaps non-virtualized) initiator
// hosts." Both hosts' VMs share the array's spindles, caches and head
// positions; provisioning draws from the single shared allocator.
func (h *Host) AddSharedDatastore(name string, sd *SharedDatastore) {
	if _, dup := h.datastores[name]; dup {
		panic(fmt.Sprintf("hypervisor: duplicate datastore %q", name))
	}
	if sd == nil {
		panic("hypervisor: nil shared datastore")
	}
	h.datastores[name] = sd.ds
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
// so — like Top — this is safe to call while simulations run, as long as
// the topology (CreateVM/AddDisk/DetachDisk) is not mutated concurrently.
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
	// TraceCapacity, if positive, attaches a command tracer retaining that
	// many records.
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

// DetachDisk closes a virtual disk and unregisters its collector. The LUN's
// extent stays allocated (datastores are bump-allocated); in-flight I/O
// completes normally. Detaching an unknown disk is a no-op.
func (vm *VM) DetachDisk(name string) {
	vd, ok := vm.disks[name]
	if !ok {
		return
	}
	vd.Disk.Close()
	vm.host.registry.Unregister(vm.name, name)
	delete(vm.disks, name)
}

// RemoveVM detaches all of a VM's disks and forgets it.
func (h *Host) RemoveVM(name string) {
	vm, ok := h.vms[name]
	if !ok {
		return
	}
	for _, vd := range vm.Disks() {
		vm.DetachDisk(vd.Disk.Name())
	}
	delete(h.vms, name)
}

// Disks lists the VM's virtual disks sorted by name.
func (vm *VM) Disks() []*Vdisk {
	names := make([]string, 0, len(vm.disks))
	for n := range vm.disks {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Vdisk, 0, len(names))
	for _, n := range names {
		out = append(out, vm.disks[n])
	}
	return out
}

// Top renders an esxtop-style snapshot of per-disk activity (the paper's
// §5.2 measures through "the statistics service esxtop").
func (h *Host) Top() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-10s %10s %10s %8s %8s\n",
		"VM", "DISK", "ISSUED", "COMPLETED", "INFLIGHT", "ERRORS")
	for _, vm := range h.VMs() {
		for _, vd := range vm.Disks() {
			d := vd.Disk
			fmt.Fprintf(&b, "%-12s %-10s %10d %10d %8d %8d\n",
				vm.name, d.Name(), d.Issued(), d.Completed(), d.Inflight(), d.Errored())
		}
	}
	return b.String()
}
