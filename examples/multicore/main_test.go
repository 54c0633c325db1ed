package main

import (
	"io"
	"testing"
)

// TestMulticore runs the example, which fails unless all six pipeline
// results match the Go reference models.
func TestMulticore(t *testing.T) {
	if err := run(io.Discard); err != nil {
		t.Fatal(err)
	}
}
