// Migration example (paper Section 7.5): a small cluster consolidates
// jobs onto machines; ASM's slowdown estimates tell the balancer *how
// much* interference is hurting each job — a direct signal, where prior
// systems used proxies like miss counts. The balancer swaps the
// most-slowed job on the worst machine with the least-slowed job on the
// best one, and admission control refuses machines whose tenants already
// exceed the SLA.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"asmsim"
	"asmsim/internal/observe"
)

func main() {
	obs := observe.Flags{TraceSample: 16}
	traceDir := flag.String("trace-dir", "", "capture per-node Perfetto traces into this directory (node<k>.trace.json + migrations.jsonl); merge with: tracesum merge <dir>/node*.trace.json")
	obs.Register(flag.CommandLine, map[string]string{
		"dash":         "serve the live dashboard on this address; each machine's fresh estimates stream as quantum records, and the round counter appears as cluster.rounds in /debug/asm/metrics",
		"trace-sample": "with -trace-dir, record every Nth miss span (attribution matrices stay exact)",
	})
	flag.Parse()

	sys := asmsim.DefaultConfig()
	sys.Quantum = 500_000
	sys.ATSSampledSets = 64
	sys.Cores = 2

	cl, err := asmsim.NewCluster(asmsim.ClusterConfig{
		Machines:    2,
		System:      sys,
		RoundQuanta: 2,
	}, [][]string{
		{"mcf", "libquantum"}, // machine 0: two memory hogs fighting
		{"h264ref", "namd"},   // machine 1: two light jobs coasting
	})
	if err != nil {
		log.Fatal(err)
	}

	// With -dash, each machine's fresh estimates stream to the dashboard
	// as quantum records, and the cluster.rounds counter to
	// /debug/asm/metrics, while the rounds run.
	o, err := observe.Start(obs, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := o.Listen(o.Dash.MountMetrics); err != nil {
		log.Fatal(err)
	}
	tel, _ := o.Run("") // a single-run Run opens nothing, so it cannot fail

	// With -trace-dir, every machine's evaluation rounds stream to its own
	// trace file on a node-local clock, with round and migration instants;
	// tracesum merge folds them into one cluster-wide Perfetto view.
	var nodes []asmsim.TelemetryOptions
	var paths []string
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			log.Fatal(err)
		}
		for k := range cl.Machines() {
			path := filepath.Join(*traceDir, fmt.Sprintf("node%d.trace.json", k))
			tr, err := asmsim.OpenTracer(path, asmsim.TracerConfig{SampleEvery: obs.TraceSample})
			if err != nil {
				log.Fatal(err)
			}
			o.Track(path, tr.Close)
			nodes = append(nodes, asmsim.TelemetryOptions{Trace: tr})
			paths = append(paths, path)
		}
		o.Track("migrations.jsonl", func() error {
			f, err := os.Create(filepath.Join(*traceDir, "migrations.jsonl"))
			if err != nil {
				return err
			}
			return errors.Join(cl.WriteMigrationsJSONL(f), f.Close())
		})
	}
	cl.SetTelemetry(tel, nodes...)
	defer func() {
		if err := o.Close(); err != nil {
			log.Fatal(err)
		}
		for _, p := range paths {
			fmt.Printf("node trace: %s\n", p)
		}
	}()

	show := func(tag string) {
		fmt.Printf("%s: worst slowdown %.2fx\n", tag, cl.WorstSlowdown())
		for i, m := range cl.Machines() {
			fmt.Printf("  machine %d:", i)
			for j, job := range m.Jobs {
				fmt.Printf("  %s=%.2fx", job, m.Slowdowns[j])
			}
			fmt.Println()
		}
	}

	if err := cl.EvaluateRound(); err != nil {
		log.Fatal(err)
	}
	show("before migration")

	const sla = 1.8
	for i := range cl.Machines() {
		ok, err := cl.CanAdmit(i, sla)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("admission on machine %d under %.1fx SLA: %v\n", i, sla, ok)
	}

	moved, err := cl.Rebalance(0.1)
	if err != nil {
		log.Fatal(err)
	}
	if !moved {
		fmt.Println("cluster already balanced")
		return
	}
	mv := cl.Migrations[0]
	fmt.Printf("\nmigrating %s (machine %d) <-> %s (machine %d)\n\n", mv.Job, mv.From, mv.Swapped, mv.To)

	if err := cl.EvaluateRound(); err != nil {
		log.Fatal(err)
	}
	show("after migration")
}
