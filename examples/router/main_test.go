package main

import (
	"fmt"
	"os"
)

// Example runs the example with its default flags, which fails unless
// no forwarded packet was corrupt or misrouted and the CPUs caught
// corrupted traffic whenever some was sent. GDB-Kernel serves each stop
// at the simulated time of its cycle count, so the output is the same
// on every run.
func Example() {
	if _, err := run(os.Stdout); err != nil {
		fmt.Println(err)
	}
	// Output:
	// router case study, GDB-Kernel scheme, 20us inter-packet delay, 5% corrupt traffic
	//
	// simulated 5ms
	//   generated: 1000 packets (43 deliberately corrupted)
	//   forwarded:  953 (95.3%)
	//   corrupted packets caught by the CPU checksum: 43
	//   dropped at full input queues: 0
	//   consumer verified 953 packets end-to-end (0 bad, 0 misrouted)
	//   mean ingress->egress latency: 3435519ps
	//   guest software executed 105684 instructions
	//
	// integrity OK: every forwarded packet was valid and correctly routed
}
