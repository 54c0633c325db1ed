package main

import (
	"fmt"
	"os"
)

// Example runs the pipeline, which fails unless all six results match
// the Go reference models. Both CPUs are coupled with GDB-Kernel, which
// services each stop at the simulated time of its cycle count, so the
// output is the same on every run.
func Example() {
	if err := run(os.Stdout); err != nil {
		fmt.Println(err)
	}
	// Output:
	// t=22ns      0xdeadbeef --cpu0--> 0x009d9d --cpu1--> 0xd2e3e3d2
	// t=40ns      0x12345678 --cpu0--> 0x0068ac --cpu1--> 0xd2997b52
	// t=58ns      0x00000001 --cpu0--> 0x000001 --cpu1--> 0xd2ad2dd2
	// t=76ns      0xffffffff --cpu0--> 0x00ffff --cpu1--> 0xd2d2d2d2
	// t=94ns      0xcafef00d --cpu0--> 0x00bb0c --cpu1--> 0xd2f0ab52
	// t=112ns     0x0000002a --cpu0--> 0x00002a --cpu1--> 0xd2ad3852
	//
	// pipeline verified for 6 values
	// cpu0 executed 64 instructions, cpu1 54
}
