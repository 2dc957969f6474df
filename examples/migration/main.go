// Migration example (paper Section 7.5): a small cluster consolidates
// jobs onto machines; ASM's slowdown estimates tell the balancer *how
// much* interference is hurting each job — a direct signal, where prior
// systems used proxies like miss counts. The balancer swaps the
// most-slowed job on the worst machine with the least-slowed job on the
// best one, and admission control refuses machines whose tenants already
// exceed the SLA.
package main

import (
	"flag"
	"fmt"
	"log"

	"asmsim"
	"asmsim/internal/observe"
)

func main() {
	obs := observe.Flags{TraceSample: 16}
	obs.Register(flag.CommandLine, map[string]string{
		"dash":         "serve the live dashboard on this address; each machine's fresh estimates stream as quantum records, and the round counter appears as cluster.rounds in /debug/asm/metrics",
		"trace":        "write one Perfetto trace of every machine's rounds to this file (machine k's apps are pids k*1000+j, named n<k>/<app>; round and migration instants on one cluster clock); summarize with: tracesum <file>",
		"trace-sample": "with -trace, record every Nth miss span (attribution matrices stay exact)",
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

	// With -trace, every machine's evaluation rounds stream into the one
	// trace file, with round and migration instants.
	cl.SetTelemetry(tel)
	defer func() {
		if err := o.Close(); err != nil {
			log.Fatal(err)
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
