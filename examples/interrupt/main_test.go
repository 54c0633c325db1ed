package main

import (
	"io"
	"testing"
)

// TestInterrupt runs the example, which fails unless the guest ISR
// serviced all ten sample interrupts and the final maximum is 142.
func TestInterrupt(t *testing.T) {
	if err := run(io.Discard); err != nil {
		t.Fatal(err)
	}
}
