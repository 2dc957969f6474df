package dram

import "fmt"

// Request is one memory transaction (a last-level-cache miss fill or a
// dirty writeback).
type Request struct {
	App      int    // requesting application/core id
	LineAddr uint64 // 64 B line address (byte address >> 6)
	Write    bool
	Prefetch bool

	// Timing bookkeeping (CPU cycles).
	Enqueue  uint64 // when the request entered the controller
	Start    uint64 // when its first DRAM command issued
	Complete uint64 // when the last data beat transferred

	RowHit bool // serviced as a row-buffer hit

	// InterfCycles accumulates the CPU cycles this request spent queued
	// while its bank or the data bus was occupied by another application.
	// This is the per-request interference signal the FST/PTCA baselines
	// (and Figure 6) consume. The queueing share is settled when the read
	// leaves the queue, so the value is final only once the read has
	// issued (DESIGN.md decision 19).
	InterfCycles uint64

	// Causes, when non-nil, splits InterfCycles by cause application:
	// Causes[i] is the cycles app i's occupancy cost this request. The
	// tracer allocates it (numApps long) only for sampled requests, so
	// the common path stays allocation-free. While the read is queued it
	// holds a mark against its bank's ledger, not cycles: like
	// InterfCycles it is final only once the read has issued.
	Causes []uint64

	// Done is invoked at completion with the request and the CPU cycle.
	// It is nil for posted writes.
	Done func(*Request, uint64)

	bank   int
	row    uint64
	marked bool // PARBS batch membership

	// interfMark is the bank's charge to this read's app at Enqueue
	// (bankTotal less the app's own cause column); removeRead settles
	// InterfCycles against it.
	interfMark uint64
}

// Bank returns the bank index this request maps to within its channel.
func (r *Request) Bank() int { return r.bank }

// QueueLatency returns the CPU cycles the request waited before service.
// Start < Enqueue is an accounting bug, not a valid state: debug builds
// (-tags asmdebug) panic on it; release builds clamp to zero.
func (r *Request) QueueLatency() uint64 {
	if r.Start < r.Enqueue {
		if debugChecks {
			panic(fmt.Sprintf("dram: non-monotonic request timestamps: Start %d < Enqueue %d (app %d line %#x)",
				r.Start, r.Enqueue, r.App, r.LineAddr))
		}
		return 0
	}
	return r.Start - r.Enqueue
}

// TotalLatency returns the CPU cycles from enqueue to completion. As with
// QueueLatency, a backwards pair of timestamps panics under -tags
// asmdebug and clamps to zero otherwise.
func (r *Request) TotalLatency() uint64 {
	if r.Complete < r.Enqueue {
		if debugChecks {
			panic(fmt.Sprintf("dram: non-monotonic request timestamps: Complete %d < Enqueue %d (app %d line %#x)",
				r.Complete, r.Enqueue, r.App, r.LineAddr))
		}
		return 0
	}
	return r.Complete - r.Enqueue
}
