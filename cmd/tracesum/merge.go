package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"asmsim/internal/evtrace"
)

// runMerge implements `tracesum merge`: fold N per-node cluster trace
// files into one Perfetto-loadable file (see internal/evtrace/merge.go
// for the pid-namespacing, clock-reconciliation and block-matrix
// rules). The merged trace goes to -o (stdout by default); the skew
// report always goes to stderr so it never corrupts a piped trace.
func runMerge(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracesum merge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the merged trace here (default stdout)")
	if err := fs.Parse(args); err != nil {
		return usage(stderr)
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "tracesum merge: need at least one node trace file")
		return usage(stderr)
	}
	w := stdout
	var f *os.File
	if *out != "" {
		var err error
		f, err = os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "tracesum merge: %v\n", err)
			return 1
		}
		w = f
	}
	m, err := evtrace.MergeFiles(w, fs.Args())
	if err != nil {
		if f != nil {
			f.Close()
		}
		fmt.Fprintf(stderr, "tracesum merge: %v\n", err)
		return 1
	}
	if f != nil {
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "tracesum merge: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stderr, "merged %d node traces: %d apps, %d rounds, max clock skew %d cycles\n",
		len(m.Nodes), len(m.Attribution.Apps), len(m.Rounds), m.MaxSkewCycles)
	for _, nt := range m.Nodes {
		fmt.Fprintf(stderr, "  node %d: %s — %d apps, %d quanta, %d migrations\n",
			nt.Node, nt.Path, len(nt.Names), len(nt.Quanta), len(nt.Migrations))
	}
	return 0
}
