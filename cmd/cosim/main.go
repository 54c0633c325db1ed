// cosim runs the paper's router case study under a chosen co-simulation
// scheme and prints the run's measurements.
//
// Usage:
//
//	cosim -scheme gdb-wrapper|gdb-kernel|driver-kernel [flags]
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"

	"cosim/internal/core"
	"cosim/internal/harness"
	"cosim/internal/obs"
)

func main() {
	scheme := flag.String("scheme", "gdb-kernel", "co-simulation scheme: gdb-wrapper, gdb-kernel, driver-kernel")
	simTime := flag.String("time", "10ms", "simulated duration")
	delay := flag.String("delay", "20us", "inter-packet delay per source")
	payload := flag.Int("payload", 4, "payload words per packet")
	errRate := flag.Float64("errors", 0.0, "corrupted-packet injection rate [0,1]")
	mcast := flag.Float64("multicast", 0.0, "broadcast packet rate [0,1]")
	fifo := flag.Int("fifo", 8, "router FIFO depth")
	transport := flag.String("transport", "tcp", "IPC transport: tcp, unix, ring or pipe")
	seed := flag.Int64("seed", 1, "traffic seed")
	cpus := flag.Int("cpus", 1, "checksum CPUs servicing the router (gdb-kernel and driver-kernel)")
	dmi := flag.Bool("dmi", false, "grant driver-kernel guests direct memory windows (memory fast path)")
	quantum := flag.String("quantum", "", "driver-kernel temporal-decoupling quantum (duration; empty or 0 = per-cycle lock-step)")
	vcd := flag.String("vcd", "", "write a VCD trace of queue occupancy to this file")
	journal := flag.String("journal", "", "write a CSV journal of every co-simulation transfer to this file")
	metricsOut := flag.String("metrics", "", "write the run's obs metrics snapshot (JSON) to this file")
	expvarAddr := flag.String("expvar", "", "serve live metrics over HTTP on this address (GET /debug/vars)")
	flag.Parse()

	// The flag surface assembles a wire-form Spec — the same validated
	// request shape a cosimd session POST carries — and materialises
	// Params from it.
	spec := harness.Spec{
		Scheme:        *scheme,
		Transport:     *transport,
		SimTime:       *simTime,
		Delay:         *delay,
		PayloadWords:  *payload,
		ErrorRate:     *errRate,
		MulticastRate: *mcast,
		FifoDepth:     *fifo,
		Seed:          *seed,
		CPUs:          *cpus,
		DMI:           *dmi,
		Quantum:       *quantum,
	}
	p, err := spec.Params()
	if err != nil {
		fatal(err)
	}

	// One registry for the whole run: the schemes count into it live,
	// so the expvar endpoint shows progress while the simulation runs.
	reg := obs.NewRegistry()
	p.Obs = reg
	if *expvarAddr != "" {
		expvar.Publish("cosim", expvar.Func(func() any { return reg.Snapshot().Flatten() }))
		ln, err := net.Listen("tcp", *expvarAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "cosim: live metrics at http://%s/debug/vars\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, nil); err != nil {
				fmt.Fprintln(os.Stderr, "cosim: expvar server:", err)
			}
		}()
	}
	if *vcd != "" {
		f, err := os.Create(*vcd)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		p.Trace = f
	}
	var jl *core.Journal
	if *journal != "" {
		jl = core.NewJournal(0)
		p.Journal = jl
	}

	res, err := harness.Run(p)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("scheme:            %v\n", p.Scheme)
	fmt.Printf("simulated time:    %v\n", res.Simulated)
	fmt.Printf("wall-clock time:   %v\n", res.Wall)
	fmt.Printf("packets generated: %d (corrupt injected: %d)\n", res.Generated, res.BadSent)
	fmt.Printf("packets forwarded: %d (%.1f%%), %d output copies\n", res.Forwarded, res.ForwardedPct(), res.Copies)
	fmt.Printf("packets received:  %d (bad content: %d, misrouted: %d)\n", res.Received, res.BadContent, res.Misrouted)
	fmt.Printf("dropped at input:  %d   dropped at output: %d   corrupted: %d\n", res.InDrops, res.OutDrops, res.Corrupted)
	fmt.Printf("mean latency:      %v\n", res.MeanLat)
	fmt.Printf("guest instrs:      %d (cycles %d)\n", res.GuestInstructions, res.GuestCycles)
	fmt.Printf("co-sim activity:   %+v\n", res.CoStats)

	if jl != nil {
		f, err := os.Create(*journal)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := jl.WriteCSV(f); err != nil {
			fatal(err)
		}
		fmt.Printf("journal:           %d transfers -> %s\n", jl.Len(), *journal)
	}
	if res.TraceErr != nil {
		fmt.Fprintln(os.Stderr, "cosim: VCD trace error:", res.TraceErr)
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reg.Snapshot()); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics:           %d counters -> %s\n", len(res.Counters), *metricsOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cosim:", err)
	os.Exit(1)
}
