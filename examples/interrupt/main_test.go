package main

import (
	"fmt"
	"io"
	"os"
	"testing"
)

// TestInterrupt runs the example, which fails unless the guest ISR
// serviced all ten sample interrupts and the final maximum is 142.
func TestInterrupt(t *testing.T) {
	if err := run(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// Example runs the sensor monitor, which fails unless the guest ISR
// serviced all ten sample interrupts and the final maximum is 142. The
// kernel runs the guest up to each of its events and handles each
// message at the time the guest sent it, so the output is the same on
// every run.
func Example() {
	if err := run(os.Stdout); err != nil {
		fmt.Println(err)
	}
	// Output:
	// sensor monitor ready
	// t=106900ns sample[0]=17   guest reports max=17
	// t=213790ns sample[1]=4    guest reports max=17
	// t=320690ns sample[2]=99   guest reports max=99
	// t=427580ns sample[3]=23   guest reports max=99
	// t=534470ns sample[4]=56   guest reports max=99
	// t=641370ns sample[5]=142  guest reports max=142
	// t=748260ns sample[6]=8    guest reports max=142
	// t=855150ns sample[7]=141  guest reports max=142
	// t=962040ns sample[8]=77   guest reports max=142
	// t=1068930ns sample[9]=3    guest reports max=142
	//
	// 10 interrupts were raised by hardware and serviced by the guest ISR
	// guest console: "sensor monitor ready\n"
}
