package main

import (
	"fmt"
	"os"
)

// Example runs the quickstart, which fails unless the guest answers all
// five requests with 2, 4, 6, 8 and 10. GDB-Kernel services each stop
// at the simulated time of its cycle count, so the output is the same
// on every run.
func Example() {
	if err := run(os.Stdout); err != nil {
		fmt.Println(err)
	}
	// Output:
	// t=9ns       hw sent 1, cpu answered 2
	// t=17ns      hw sent 2, cpu answered 4
	// t=25ns      hw sent 3, cpu answered 6
	// t=33ns      hw sent 4, cpu answered 8
	// t=41ns      hw sent 5, cpu answered 10
	// guest executed 29 instructions; co-sim stats: {Transfers:10 Stops:10 Polls:10 Messages:0 IntsNotified:0 DMIHits:0 DMIMisses:0}
}
