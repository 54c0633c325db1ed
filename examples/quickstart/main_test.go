package main

import (
	"io"
	"testing"
)

// TestQuickstart runs the example, which fails unless the guest answers
// all five requests with 2, 4, 6, 8 and 10.
func TestQuickstart(t *testing.T) {
	if err := run(io.Discard); err != nil {
		t.Fatal(err)
	}
}
