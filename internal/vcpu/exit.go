package vcpu

import (
	"fmt"

	"govisor/internal/isa"
	"govisor/internal/mem"
)

// ExitReason says why Run returned control to the VMM; the detail is in
// the CPU's exit record (CPU.Exit).
type ExitReason uint8

// Exit reasons.
const (
	ExitNone       ExitReason = iota
	ExitQuantum               // cycle budget exhausted (host scheduler preemption)
	ExitHalt                  // guest executed HALT; Code carries the diagnostic
	ExitEcall                 // environment call: hypercall (From==PrivS) or syscall to reflect (From==PrivU, deprivileged only)
	ExitPriv                  // privileged instruction while deprivileged; Inst holds it
	ExitMMIO                  // device access; MMIO holds the transaction
	ExitHostFault             // guest-physical fault (demand page, WP, balloon); Mem holds it
	ExitShadowMiss            // shadow-paging fill needed for VA/Access
	ExitGuestTrap             // guest-visible trap while deprivileged; VMM must inject Cause/Tval
	ExitWFI                   // guest idles until an interrupt is pending
	ExitIntrWindow            // deprivileged guest has a deliverable virtual interrupt; VMM injects

	NumExitReasons = int(ExitIntrWindow) + 1
)

var exitNames = [...]string{
	ExitNone: "none", ExitQuantum: "quantum", ExitHalt: "halt",
	ExitEcall: "ecall", ExitPriv: "priv", ExitMMIO: "mmio",
	ExitHostFault: "host-fault", ExitShadowMiss: "shadow-miss",
	ExitGuestTrap: "guest-trap", ExitWFI: "wfi",
	ExitIntrWindow: "intr-window",
}

// String names the exit reason.
func (r ExitReason) String() string {
	if int(r) < len(exitNames) {
		return exitNames[r]
	}
	return fmt.Sprintf("exit(%d)", uint8(r))
}

// MMIOInfo describes a device access that exited to the VMM. The program
// counter has already advanced past the instruction; for reads the VMM
// completes the access with CPU.FinishMMIORead.
type MMIOInfo struct {
	GPA    uint64
	Size   uint8 // 1, 2, 4 or 8
	Write  bool
	Value  uint64 // store data (Write == true)
	Rd     uint8  // destination register (Write == false)
	Signed bool   // sign-extend the loaded value
}

// Exit is the CPU's exit record (CPU.Exit): the detail of the exit whose
// reason CPU.Run returned. The CPU owns the one record, every exit writes
// all of it in one assignment — no field of an earlier exit survives — and
// it stays valid until the next Run.
type Exit struct {
	Reason ExitReason
	Code   uint16   // ExitHalt diagnostic
	Inst   isa.Inst // ExitPriv: the instruction to emulate
	From   uint8    // ExitEcall: virtual privilege it was issued from

	VA     uint64     // faulting virtual address (shadow miss / host fault)
	Access isa.Access // access kind for VA
	Mem    mem.Fault  // ExitHostFault detail

	Cause uint64 // ExitGuestTrap: scause to inject
	Tval  uint64 // ExitGuestTrap: stval to inject

	MMIO MMIOInfo
}

func (e *Exit) String() string {
	switch e.Reason {
	case ExitHalt:
		return fmt.Sprintf("halt(%d)", e.Code)
	case ExitPriv:
		return fmt.Sprintf("priv(%s)", isa.Disasm(e.Inst))
	case ExitMMIO:
		dir := "read"
		if e.MMIO.Write {
			dir = "write"
		}
		return fmt.Sprintf("mmio(%s %d @ %#x)", dir, e.MMIO.Size, e.MMIO.GPA)
	case ExitGuestTrap:
		return fmt.Sprintf("guest-trap(%s)", isa.CauseName(e.Cause))
	case ExitHostFault:
		return fmt.Sprintf("host-fault(%v)", &e.Mem)
	default:
		return e.Reason.String()
	}
}
