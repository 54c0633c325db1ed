package main

import (
	"io"
	"testing"
)

// TestRouter runs the example with its default flags, which fails
// unless no forwarded packet was corrupt or misrouted and the CPUs
// caught corrupted traffic whenever some was sent.
func TestRouter(t *testing.T) {
	if err := run(io.Discard); err != nil {
		t.Fatal(err)
	}
}
