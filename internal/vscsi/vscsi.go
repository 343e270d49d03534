// Package vscsi implements the virtual SCSI device layer: the hypervisor
// chokepoint through which every guest I/O flows and at which the paper's
// online characterization service observes commands.
//
// A Disk is one virtual disk of one VM. Guests issue scsi.Commands to it;
// the disk tracks in-flight commands, enforces an optional per-disk active
// queue limit (ESX "maintains a queue of pending requests per virtual
// machine for each target SCSI device"), forwards commands to a Backend (the
// physical storage model) and notifies Observers at issue and completion
// time. The stats collector (internal/core) and the trace framework
// (internal/trace) are both Observers.
package vscsi

import (
	"errors"
	"fmt"
	"sync/atomic"

	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
)

// Request is one virtual SCSI command in flight. Observers must treat a
// Request as read-only.
//
// A *Request belongs to its Disk, which recycles it: the pointer is valid
// from Issue until the command's done callback returns (for a command
// issued without one, until the last observer's OnComplete returns), and
// the Disk may hand the same object out for a later command after that.
// Observers, backends and callers that need the command's fields afterwards
// copy the struct.
type Request struct {
	// ID is unique per Disk, monotonically increasing in issue order.
	ID uint64
	// VM and Disk identify the issuing virtual machine and virtual disk.
	VM, Disk string
	// Cmd is the decoded SCSI command.
	Cmd scsi.Command
	// IssueTime is the virtual time the guest issued the command.
	IssueTime simclock.Time
	// SubmitTime is when the command left the pending queue for the
	// backend; equal to IssueTime unless the active-queue limit held it.
	SubmitTime simclock.Time
	// CompleteTime is when the backend completed it (zero while in flight).
	CompleteTime simclock.Time
	// OutstandingAtIssue counts the other commands on this virtual disk
	// that had been issued but not completed when this one arrived — the
	// paper's "Outstanding I/Os" metric (§3.3).
	OutstandingAtIssue int
	// Status and Sense hold the completion result.
	Status scsi.Status
	Sense  scsi.Sense

	// done is the caller's completion callback, held on the request so
	// both the normal completion path and Abort can invoke it.
	done func(*Request)
	// disk is the owning disk and completeFn the method value r.complete,
	// both bound when the Request is first allocated and kept across
	// reuse: completeFn is the completion callback the backend receives.
	disk       *Disk
	completeFn func(scsi.Status, scsi.Sense)
	// submitted marks that the request was handed to the backend.
	submitted bool
	// completed marks that the backend already invoked its callback.
	completed bool
	// aborted marks a request cancelled by the guest; the backend's late
	// completion is then discarded.
	aborted bool
	// finished marks that observers/done already ran for this request.
	finished bool
}

// Latency is the device latency observed by the guest: issue to completion.
func (r *Request) Latency() simclock.Time { return r.CompleteTime - r.IssueTime }

// Observer is notified on the vSCSI fast path. OnIssue runs after the
// request is counted as outstanding but before it reaches the backend;
// OnComplete runs after Status, Sense and CompleteTime are final. The
// Request is the Disk's (see Request): an observer that wants a command's
// fields after OnComplete returns copies the struct, never the pointer.
type Observer interface {
	OnIssue(r *Request)
	OnComplete(r *Request)
}

// BatchObserver is an optional Observer extension for bursts. When a guest
// issues several commands at one instant (Disk.IssueBatch), observers that
// implement it receive the whole burst in one OnIssueBatch call — in issue
// order, with the same read-only Request contract as OnIssue — instead of
// one OnIssue per command. That lets an observer amortize per-call costs
// (the stats collector takes its stream mutex once per burst instead of
// once per command). Observers that do not implement the extension keep
// receiving per-command OnIssue calls; the two deliveries are equivalent.
type BatchObserver interface {
	Observer
	OnIssueBatch(rs []*Request)
}

// Backend services commands on behalf of a virtual disk — in this
// repository, the storage array model. Submit must eventually invoke done
// exactly once (possibly synchronously), also for a command the guest has
// aborted in the meantime: the Disk keeps the Request out of circulation
// until then, so r stays this command's until done is invoked and must not
// be touched after.
type Backend interface {
	Submit(r *Request, done func(status scsi.Status, sense scsi.Sense))
}

// BackendFunc adapts a function to the Backend interface.
type BackendFunc func(r *Request, done func(status scsi.Status, sense scsi.Sense))

// Submit implements Backend.
func (f BackendFunc) Submit(r *Request, done func(status scsi.Status, sense scsi.Sense)) {
	f(r, done)
}

// ErrClosed is returned by Issue after Close.
var ErrClosed = errors.New("vscsi: disk closed")

// DiskConfig configures a virtual disk.
type DiskConfig struct {
	// VM and Name identify the disk, e.g. "oltp-vm" / "scsi0:1".
	VM, Name string
	// CapacitySectors is the disk size in 512-byte logical blocks.
	CapacitySectors uint64
	// MaxActive limits commands concurrently submitted to the backend;
	// excess commands wait in a FIFO pending queue. Zero means unlimited.
	MaxActive int
}

// Disk is a virtual SCSI disk. Queue manipulation (Issue, Abort, Close,
// AddObserver) is confined to the goroutine that owns the disk's engine,
// exactly as ESX serializes per-disk queue manipulation — but the lifetime
// counters (Inflight, Issued, Completed, Errored) are atomics, so
// monitoring goroutines (esxtop-style views, the HTTP stats service, the
// parallel multi-VM driver's control plane) may read them while the owning
// goroutine runs the simulation.
type Disk struct {
	cfg     DiskConfig
	eng     *simclock.Engine
	backend Backend

	observers []Observer

	nextID   uint64
	inflight atomic.Int64 // issued, not completed (includes pending)
	active   int          // submitted to the backend
	closed   bool
	// pending is the FIFO of commands held back by MaxActive; its live
	// part starts at pendHead.
	pending  []*Request
	pendHead int
	// free holds the Requests whose commands are over, for reuse.
	free []*Request

	issued    atomic.Uint64
	completed atomic.Uint64
	errored   atomic.Uint64
}

// NewDisk creates a virtual disk served by backend on engine eng.
func NewDisk(eng *simclock.Engine, backend Backend, cfg DiskConfig) *Disk {
	if cfg.CapacitySectors == 0 {
		panic("vscsi: disk capacity must be nonzero")
	}
	if backend == nil {
		panic("vscsi: nil backend")
	}
	return &Disk{cfg: cfg, eng: eng, backend: backend}
}

// VM returns the owning VM's name.
func (d *Disk) VM() string { return d.cfg.VM }

// Name returns the virtual disk's name.
func (d *Disk) Name() string { return d.cfg.Name }

// CapacitySectors returns the disk size in logical blocks.
func (d *Disk) CapacitySectors() uint64 { return d.cfg.CapacitySectors }

// Inflight returns the number of issued-but-not-completed commands.
func (d *Disk) Inflight() int { return int(d.inflight.Load()) }

// Issued and Completed report lifetime command counts; Errored counts
// completions with a status other than GOOD.
func (d *Disk) Issued() uint64    { return d.issued.Load() }
func (d *Disk) Completed() uint64 { return d.completed.Load() }
func (d *Disk) Errored() uint64   { return d.errored.Load() }

// AddObserver attaches an observer to the fast path.
func (d *Disk) AddObserver(o Observer) {
	d.observers = append(d.observers, o)
}

// RemoveObserver detaches a previously attached observer.
func (d *Disk) RemoveObserver(o Observer) {
	for i, cur := range d.observers {
		if cur == o {
			d.observers = append(d.observers[:i], d.observers[i+1:]...)
			return
		}
	}
}

// Close fails subsequent Issues. In-flight commands complete normally.
func (d *Disk) Close() { d.closed = true }

// Issue submits a guest command. done, if non-nil, is invoked at completion
// after observers have seen it. Issue returns the in-flight request, which
// the caller may read and pass to Abort until done returns; after that the
// Disk reuses it (see Request).
//
// Commands that fail validation (e.g. out-of-range LBA) complete immediately
// with CHECK CONDITION — they still traverse the observer path, since a real
// vSCSI layer sees malformed guest commands too.
func (d *Disk) Issue(cmd scsi.Command, done func(*Request)) (*Request, error) {
	if d.closed {
		return nil, ErrClosed
	}
	r := d.newRequest(cmd, d.eng.Now(), done)
	for _, o := range d.observers {
		o.OnIssue(r)
	}

	if d.outOfRange(cmd) {
		d.finish(r, scsi.StatusCheckCondition, scsi.SenseLBAOutOfRange)
		return r, nil
	}

	if d.cfg.MaxActive > 0 && d.active >= d.cfg.MaxActive {
		d.enqueue(r)
		return r, nil
	}
	d.submit(r)
	return r, nil
}

// outOfRange reports whether a block I/O command's extent runs past the
// disk. It compares lengths, not cmd.LastLBA(), so an extent that wraps
// past 2^64 is refused too.
func (d *Disk) outOfRange(cmd scsi.Command) bool {
	capacity := d.cfg.CapacitySectors
	return cmd.Op.IsBlockIO() && (cmd.LBA >= capacity || uint64(cmd.Blocks) > capacity-cmd.LBA)
}

// newRequest takes a Request off the free list (or allocates the disk's
// next one) and counts it as issued. A recycled Request is reset here, on
// reuse, not when it is released: until then it keeps its finished and
// completed marks, so a second backend completion still panics and a late
// Abort is still refused.
func (d *Disk) newRequest(cmd scsi.Command, now simclock.Time, done func(*Request)) *Request {
	var r *Request
	if n := len(d.free); n > 0 {
		r = d.free[n-1]
		d.free = d.free[:n-1]
		r.SubmitTime, r.CompleteTime = 0, 0
		r.Status, r.Sense = scsi.StatusGood, scsi.Sense{}
		r.submitted, r.completed, r.aborted, r.finished = false, false, false, false
	} else {
		r = &Request{VM: d.cfg.VM, Disk: d.cfg.Name, disk: d}
		r.completeFn = r.complete
	}
	r.ID = d.nextID
	r.Cmd = cmd
	r.IssueTime = now
	r.OutstandingAtIssue = int(d.inflight.Load())
	r.done = done
	d.nextID++
	d.inflight.Add(1)
	d.issued.Add(1)
	return r
}

// IssueBatch submits a burst of guest commands arriving at one instant —
// e.g. a workload generator filling its outstanding window, or a guest
// driver draining its queue after an interrupt. Every command is stamped
// with the same issue time; each command's OutstandingAtIssue counts its
// batch predecessors (they are issued, not completed). Observers that
// implement BatchObserver see the burst in one call; others get the usual
// per-command OnIssue. Commands are then validated and submitted to the
// backend in order, so for backends that complete asynchronously (every
// storage model in this repository) the simulation is bit-identical to
// issuing the same commands in an immediate loop. done, if non-nil, is
// invoked at each request's completion.
func (d *Disk) IssueBatch(cmds []scsi.Command, done func(*Request)) ([]*Request, error) {
	if d.closed {
		return nil, ErrClosed
	}
	if len(cmds) == 0 {
		return nil, nil
	}
	now := d.eng.Now()
	rs := make([]*Request, len(cmds))
	for i, cmd := range cmds {
		rs[i] = d.newRequest(cmd, now, done)
	}
	for _, o := range d.observers {
		if bo, ok := o.(BatchObserver); ok {
			bo.OnIssueBatch(rs)
			continue
		}
		for _, r := range rs {
			o.OnIssue(r)
		}
	}
	for _, r := range rs {
		switch {
		case d.outOfRange(r.Cmd):
			d.finish(r, scsi.StatusCheckCondition, scsi.SenseLBAOutOfRange)
		case d.cfg.MaxActive > 0 && d.active >= d.cfg.MaxActive:
			d.enqueue(r)
		default:
			d.submit(r)
		}
	}
	return rs, nil
}

func (d *Disk) submit(r *Request) {
	d.active++
	r.SubmitTime = d.eng.Now()
	r.submitted = true
	d.backend.Submit(r, r.completeFn)
}

// complete is the backend's completion callback for a submitted request.
func (r *Request) complete(status scsi.Status, sense scsi.Sense) {
	d := r.disk
	if r.completed || !r.submitted {
		panic(fmt.Sprintf("vscsi: double completion of %s request %d", d.cfg.Name, r.ID))
	}
	r.completed = true
	d.active--
	if r.aborted {
		// An aborted command already failed in the guest's eyes; its late
		// backend completion only frees the active slot and the Request.
		d.free = append(d.free, r)
	} else {
		d.finish(r, status, sense)
	}
	d.drain()
}

func (d *Disk) finish(r *Request, status scsi.Status, sense scsi.Sense) {
	r.finished = true
	r.CompleteTime = d.eng.Now()
	r.Status = status
	r.Sense = sense
	d.inflight.Add(-1)
	d.completed.Add(1)
	if status != scsi.StatusGood {
		d.errored.Add(1)
	}
	for _, o := range d.observers {
		o.OnComplete(r)
	}
	if r.done != nil {
		r.done(r)
	}
	// The command is over once the backend is through with it too; a
	// request aborted in flight waits for its late completion.
	if r.completed || !r.submitted {
		d.free = append(d.free, r)
	}
}

// Abort cancels an in-flight command: the guest sees it complete
// immediately with ABORTED COMMAND, observers included (a real vSCSI layer
// surfaces guest aborts too, and they matter for characterization — an
// abort storm is a workload signal). Returns false if the request already
// completed. The backend's eventual completion is discarded.
func (d *Disk) Abort(r *Request) bool {
	if r.finished || r.aborted {
		return false
	}
	r.aborted = true
	// If still waiting in the pending FIFO, remove it there.
	if !r.submitted {
		for i := d.pendHead; i < len(d.pending); i++ {
			if d.pending[i] == r {
				copy(d.pending[i:], d.pending[i+1:])
				d.pending[len(d.pending)-1] = nil
				d.pending = d.pending[:len(d.pending)-1]
				break
			}
		}
	}
	d.finish(r, scsi.StatusCheckCondition, scsi.Sense{
		Key: scsi.SenseAbortedCommand,
	})
	return true
}

// enqueue appends r to the pending FIFO. A full buffer with a consumed
// prefix is compacted rather than grown, so a queue that never empties
// stays as large as its deepest backlog.
func (d *Disk) enqueue(r *Request) {
	if d.pendHead > 0 && len(d.pending) == cap(d.pending) {
		n := copy(d.pending, d.pending[d.pendHead:])
		clear(d.pending[n:])
		d.pending, d.pendHead = d.pending[:n], 0
	}
	d.pending = append(d.pending, r)
}

func (d *Disk) drain() {
	for d.pendHead < len(d.pending) && (d.cfg.MaxActive == 0 || d.active < d.cfg.MaxActive) {
		r := d.pending[d.pendHead]
		d.pending[d.pendHead] = nil
		d.pendHead++
		if d.pendHead == len(d.pending) {
			d.pending, d.pendHead = d.pending[:0], 0
		}
		d.submit(r)
	}
}
