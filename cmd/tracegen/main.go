// Command tracegen records synthetic benchmark instruction streams into
// trace files (internal/trace format) and dumps them. Recorded traces
// replay exactly in-module through the internal sim.NewWithSources, which
// the tests use; no CLI or service reads a trace file.
//
// Usage:
//
//	tracegen -app mcf -n 5000000 -o mcf.trace
//	tracegen -app libquantum -seed 9 -o /tmp/libq.trace
//	tracegen -dump mcf.trace | head
package main

import (
	"flag"
	"fmt"
	"os"

	"asmsim/internal/trace"
	"asmsim/internal/workload"
)

func main() {
	var (
		app  = flag.String("app", "", "benchmark to record")
		n    = flag.Int("n", 1_000_000, "instructions to record")
		seed = flag.Uint64("seed", 1, "generator seed")
		slot = flag.Int("slot", 0, "address-space slot")
		out  = flag.String("o", "", "output trace file")
		dump = flag.String("dump", "", "print a trace file's records instead")
	)
	flag.Parse()

	if *dump != "" {
		instrs, err := trace.LoadFile(*dump)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for i, in := range instrs {
			switch {
			case !in.IsMem:
				fmt.Printf("%d compute\n", i)
			case in.Write:
				fmt.Printf("%d store 0x%x\n", i, in.Addr)
			case in.DependsOnPrev:
				fmt.Printf("%d load  0x%x (dependent)\n", i, in.Addr)
			default:
				fmt.Printf("%d load  0x%x\n", i, in.Addr)
			}
		}
		return
	}

	if *app == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "need -app and -o (or -dump)")
		os.Exit(1)
	}
	spec, ok := workload.ByName(*app)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", *app)
		os.Exit(1)
	}
	gen := workload.NewGenerator(spec, *slot, *seed)
	instrs := trace.Record(gen, *n)
	if err := trace.WriteFile(*out, instrs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	st, _ := os.Stat(*out)
	fmt.Printf("recorded %d instructions of %s to %s (%d bytes, %.2f B/instr)\n",
		*n, *app, *out, st.Size(), float64(st.Size())/float64(*n))
}
