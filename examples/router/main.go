// Router: the paper's §5 case study, assembled from its building blocks
// rather than through the harness — a 4x4 packet router whose per-packet
// checksum is verified by software on the ISS.
//
// Run with: go run ./examples/router [-scheme gdb-kernel|gdb-wrapper|driver-kernel]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"cosim/internal/core"
	"cosim/internal/harness"
	"cosim/internal/sim"
)

var (
	scheme    = flag.String("scheme", "gdb-kernel", "co-simulation scheme")
	delay     = flag.String("delay", "20us", "inter-packet delay")
	errorRate = flag.Float64("errors", 0.05, "corrupted packet injection rate")
)

func main() {
	flag.Parse()
	res, err := run(os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wall time: %v\n", res.Wall)
}

// run simulates 5ms of the case study under the flags' settings and
// checks that every forwarded packet arrived intact and correctly
// routed, and that the CPUs caught corrupted traffic. What it prints
// depends only on the flags; the wall time in the result it returns
// does not.
func run(w io.Writer) (*harness.Result, error) {
	s, err := harness.ParseScheme(*scheme)
	if err != nil {
		return nil, err
	}
	d, err := sim.ParseTime(*delay)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "router case study, %v scheme, %v inter-packet delay, %.0f%% corrupt traffic\n",
		s, d, *errorRate*100)

	res, err := harness.Run(harness.Params{
		Scheme:    s,
		Transport: core.TransportTCP,
		SimTime:   5 * sim.MS,
		Delay:     d,
		ErrorRate: *errorRate,
		Seed:      2026,
	})
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "\nsimulated %v\n", res.Simulated)
	fmt.Fprintf(w, "  generated: %4d packets (%d deliberately corrupted)\n", res.Generated, res.BadSent)
	fmt.Fprintf(w, "  forwarded: %4d (%.1f%%)\n", res.Forwarded, res.ForwardedPct())
	fmt.Fprintf(w, "  corrupted packets caught by the CPU checksum: %d\n", res.Corrupted)
	fmt.Fprintf(w, "  dropped at full input queues: %d\n", res.InDrops)
	fmt.Fprintf(w, "  consumer verified %d packets end-to-end (%d bad, %d misrouted)\n",
		res.Received, res.BadContent, res.Misrouted)
	fmt.Fprintf(w, "  mean ingress->egress latency: %v\n", res.MeanLat)
	fmt.Fprintf(w, "  guest software executed %d instructions\n", res.GuestInstructions)

	if res.BadContent != 0 || res.Misrouted != 0 {
		return nil, errors.New("integrity check failed")
	}
	if res.Corrupted == 0 && res.BadSent > 0 {
		return nil, errors.New("corrupted packets slipped through the checksum")
	}
	fmt.Fprintln(w, "\nintegrity OK: every forwarded packet was valid and correctly routed")
	return res, nil
}
