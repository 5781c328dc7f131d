// Package govisor is a machine-simulation hypervisor study in Go: a complete
// virtual machine monitor over a simulated 64-bit RISC machine (GV64), built
// to reproduce the canonical evaluation of a SOSP-class virtualization paper
// without requiring KVM/VT-x access.
//
// The library implements, from scratch:
//
//   - the GV64 ISA, an assembler, and a cycle-accounting interpreter
//   - a software MMU with a set-associative TLB and three translation
//     regimes: direct 1-D paging, VMM-maintained shadow paging, and nested
//     (two-dimensional) paging with the (g+1)(n+1)−1 walk cost
//   - the VMM itself: exit dispatch, privileged-instruction emulation,
//     hypercalls, virtual interrupts — supporting four execution modes
//     (native baseline, trap-and-emulate, paravirtual, hardware-assist)
//   - devices: programmed-I/O baselines and virtio (blk/net/console/balloon)
//     over split virtqueues, an L2 switch, COW disk images
//   - memory services: ballooning, content-based page dedup, COW cloning
//   - live migration: pre-copy, stop-and-copy, post-copy
//   - vCPU schedulers: round-robin, Xen-style credit, CFS-like fair
//   - one host execution engine (Host.RunParallel): VM fleets run in
//     scheduler epochs across worker goroutines over a lock-striped frame
//     pool, with every guest-visible result byte-identical at any worker
//     count, including a single worker (serial execution)
//
// The public API re-exports the building blocks; see the examples directory
// for runnable programs and EXPERIMENTS.md for the reproduced evaluation.
//
// # Quick start
//
//	kernel, _ := govisor.BuildKernel()
//	vm, _ := govisor.NewVM(govisor.NewPool(32<<20/4096), govisor.Config{
//	    Name: "demo", Mode: govisor.ModeHW, MemBytes: 16 << 20,
//	})
//	govisor.Compute(1000, 10).Apply(vm)
//	vm.Boot(kernel)
//	vm.RunToHalt(1e9)
package govisor

import (
	"govisor/internal/core"
	"govisor/internal/faultnet"
	"govisor/internal/gabi"
	"govisor/internal/guest"
	"govisor/internal/ksm"
	"govisor/internal/mem"
	"govisor/internal/migrate"
	"govisor/internal/sched"
	"govisor/internal/snapshot"
	"govisor/internal/storage"
	"govisor/internal/vcpu"
	"govisor/internal/vnet"
)

// Core VMM types.
type (
	// VM is one guest virtual machine; see core.VM.
	VM = core.VM
	// Config describes a VM to create.
	Config = core.Config
	// Mode selects the virtualization style.
	Mode = core.Mode
	// State is a VM lifecycle state.
	State = core.State
	// Host is one simulated physical machine multiplexing VMs.
	Host = core.Host
	// Marker is a guest benchmark-region marker.
	Marker = core.Marker
	// Pool is host physical memory.
	Pool = mem.Pool
	// GuestPhys is a VM's guest-physical address space (VM.Mem).
	GuestPhys = mem.GuestPhys
	// Costs is the cycle cost model.
	Costs = vcpu.Costs
	// Workload parameterizes the universal guest kernel.
	Workload = guest.Workload
)

// Virtualization modes.
const (
	ModeNative = core.ModeNative // bare-hardware baseline
	ModeTrap   = core.ModeTrap   // trap-and-emulate + shadow paging
	ModePara   = core.ModePara   // paravirtual (hypercall MMU)
	ModeHW     = core.ModeHW     // hardware-assist (nested paging)
)

// VM states.
const (
	StateCreated = core.StateCreated
	StateRunning = core.StateRunning
	StateIdle    = core.StateIdle
	StatePaused  = core.StatePaused
	StateHalted  = core.StateHalted
	StateError   = core.StateError
)

// NewPool creates a host memory pool of the given capacity in 4 KiB frames.
func NewPool(frames uint64) *Pool { return mem.NewPool(frames) }

// NewVM creates a VM over a host pool.
func NewVM(pool *Pool, cfg Config) (*VM, error) { return core.NewVM(pool, cfg) }

// NewHost creates a simulated physical machine with the given memory budget
// (frames), core count, and scheduler.
func NewHost(poolFrames uint64, pcpus int, s core.LeaseScheduler) *Host {
	return core.NewHost(poolFrames, pcpus, s)
}

// DefaultCosts returns the standard cycle cost model.
func DefaultCosts() Costs { return vcpu.DefaultCosts() }

// Guest software.
var (
	// BuildKernel assembles the universal guest kernel.
	BuildKernel = guest.BuildKernel
	// Workload constructors (apply before Boot).
	Compute  = guest.Compute
	MemTouch = guest.MemTouch
	PTChurn  = guest.PTChurn
	Syscall  = guest.Syscall
	CSRLoop  = guest.CSRLoop
	Dirty    = guest.Dirty
	Idle     = guest.Idle
	// I/O benchmark guests.
	BuildPIODiskProgram   = guest.BuildPIODiskProgram
	BuildVirtioBlkProgram = guest.BuildVirtioBlkProgram
	BuildRegNICProgram    = guest.BuildRegNICProgram
	BuildVirtioNetProgram = guest.BuildVirtioNetProgram
)

// Result slots of the universal kernel (read with VM.Result).
const (
	ResultPrimary = gabi.PResult0
	ResultLatency = gabi.PResult1
)

// Storage.
type (
	// RawImage is a flat in-memory disk image.
	RawImage = storage.Raw
	// COWImage is a copy-on-write layer with snapshot chains.
	COWImage = storage.COW
)

// NewRawImage creates a raw disk of the given sector count.
func NewRawImage(sectors uint64) *RawImage { return storage.NewRaw(sectors) }

// NewCOWImage layers a writable COW image over a backing image.
func NewCOWImage(backing storage.Image) *COWImage { return storage.NewCOW(backing) }

// Networking.
type (
	// Switch is the virtual L2 switch.
	Switch = vnet.Switch
	// SwitchPort is one switch attachment.
	SwitchPort = vnet.Port
)

// NewSwitch creates a virtual L2 switch.
func NewSwitch() *Switch { return vnet.NewSwitch() }

// Schedulers.
var (
	// NewRoundRobin creates the baseline scheduler.
	NewRoundRobin = sched.NewRoundRobin
	// NewCredit creates the Xen-style credit scheduler.
	NewCredit = sched.NewCredit
	// NewCFS creates the CFS-like fair scheduler.
	NewCFS = sched.NewCFS
)

// Migration.
type (
	// MigrateOptions configures a live migration.
	MigrateOptions = migrate.Options
	// MigrateReport is a migration outcome.
	MigrateReport = migrate.Report
	// Link models the migration channel.
	Link = migrate.Link
	// StreamOptions configures a streamed (wire-transport) migration.
	StreamOptions = migrate.StreamOptions
	// StreamReport is a streamed migration outcome, with transport stats.
	StreamReport = migrate.StreamReport
	// FaultPlan schedules deterministic transport faults.
	FaultPlan = faultnet.Plan
	// FaultInjector wraps connections with a seeded fault schedule.
	FaultInjector = faultnet.Injector
)

// Migration modes.
const (
	PreCopy     = migrate.PreCopy
	StopAndCopy = migrate.StopAndCopy
	PostCopy    = migrate.PostCopy
)

var (
	// Migrate moves a running guest between VMs: StreamMigrate over a
	// clean in-memory pipe with the default retry policy, returning the
	// Report. Demand-only post-copy leaves one goroutine serving the
	// source's pages until every present page has been pulled.
	Migrate = migrate.Migrate
	// Gbps builds a migration link.
	Gbps = migrate.Gbps
	// DefaultMigrateOptions returns pre-copy over a 10 Gb link.
	DefaultMigrateOptions = migrate.DefaultOptions
	// StreamMigrate runs a migration over a chosen wire with retry,
	// resume, and abort-with-rollback; every migration runs through it.
	StreamMigrate = migrate.StreamMigrate
	// DefaultStreamOptions returns streamed pre-copy over net.Pipe.
	DefaultStreamOptions = migrate.DefaultStreamOptions
	// PipeWire builds an in-memory wire over net.Pipe, optionally
	// fault-wrapped.
	PipeWire = migrate.PipeWire
	// NewFaultInjector builds a deterministic fault injector.
	NewFaultInjector = faultnet.NewInjector
)

// ErrMigrationAborted reports a streamed migration that gave up and rolled
// the source back.
var ErrMigrationAborted = migrate.ErrAborted

// Snapshot / cloning.
var (
	// SaveSnapshot serializes a paused VM.
	SaveSnapshot = snapshot.Save
	// RestoreSnapshot loads a snapshot into a fresh VM.
	RestoreSnapshot = snapshot.Restore
	// CloneVM instantly forks a VM copy-on-write on the same host.
	CloneVM = snapshot.Clone
)

// Memory dedup.
type (
	// DedupScanner merges identical pages across VMs.
	DedupScanner = ksm.Scanner
)

// NewDedupScanner creates a scanner over a host pool.
func NewDedupScanner(pool *Pool) *DedupScanner { return ksm.NewScanner(pool) }
