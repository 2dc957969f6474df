// Package dram implements the main-memory substrate of the paper's system:
// a command-level DDR3 SDRAM model (banks, rows, row-buffer state, data
// bus), a memory controller with separate read and posted-write queues, a
// pluggable scheduling policy (FR-FCFS, PARBS, TCM), the epoch
// highest-priority overlay used by MISE/ASM/ASM-Mem, and the per-request
// interference accounting that the FST/PTCA baselines consume.
//
// The model is deliberately command-level rather than electrically
// cycle-exact: the interference phenomena the paper studies — bank
// conflicts, row-buffer locality, bus serialization, and queueing — are all
// first-class here, with DDR3-1333 10-10-10 latencies.
package dram

// Timing holds DRAM timing parameters, expressed in DRAM bus cycles, plus
// the CPU:DRAM clock ratio used to convert to CPU cycles.
type Timing struct {
	TRCD   int // ACT to column command
	TRP    int // PRE to ACT
	TCL    int // column command to first data
	TBurst int // data transfer time for one line (BL8, DDR => 4 bus cycles)
	// TRAS is the ACT to PRE minimum. No command reads it: a bank stays
	// busy at least TRCD+TCL+TBurst bus cycles after an activate, and a
	// precharge waits for the bank, so tRAS holds only because
	// TRCD+TCL+TBurst >= TRAS (24 >= 24 in DDR31333).
	TRAS int
	TWR  int // write recovery (extra bank busy after a write burst)

	CPUPerDRAM int // CPU cycles per DRAM bus cycle
}

// DDR31333 returns the paper's DDR3-1333 (10-10-10) timing with a 5.3 GHz
// CPU clock (Table 2): the 666.7 MHz DRAM bus gives a ratio of 8 CPU
// cycles per DRAM cycle.
func DDR31333() Timing {
	return Timing{
		TRCD:       10,
		TRP:        10,
		TCL:        10,
		TBurst:     4,
		TRAS:       24,
		TWR:        10,
		CPUPerDRAM: 8,
	}
}

// Geometry describes the DRAM organization (Table 2: 1-4 channels, 1 rank
// per channel, 8 banks per rank, 8 KB rows, 64 B lines).
type Geometry struct {
	Channels     int
	BanksPerChan int
	LinesPerRow  int // row size / line size; 8 KB / 64 B = 128
}

// DefaultGeometry returns the paper's main configuration with the given
// channel count.
func DefaultGeometry(channels int) Geometry {
	if channels <= 0 {
		channels = 1
	}
	return Geometry{Channels: channels, BanksPerChan: 8, LinesPerRow: 128}
}

// Map decomposes a line address into its channel, bank, and row.
// The mapping places the column bits lowest (so a sequential stream enjoys
// row-buffer locality), then channel (fine-grained channel interleaving),
// then bank, then row.
func (g Geometry) Map(lineAddr uint64) (channel, bank int, row uint64) {
	x := lineAddr / uint64(g.LinesPerRow)
	channel = int(x % uint64(g.Channels))
	x /= uint64(g.Channels)
	bank = int(x % uint64(g.BanksPerChan))
	row = x / uint64(g.BanksPerChan)
	return channel, bank, row
}
