package harness

import (
	"fmt"
	"os"
	"testing"

	"cosim/internal/core"
)

func TestFigure7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 7 sweep is slow")
	}
	points, err := Figure7Points(RunAll(Figure7Scenarios(Params{
		Transport: core.TransportTCP,
		Seed:      7,
	}), 2))
	if err != nil {
		t.Fatal(err)
	}
	PrintFigure7(os.Stdout, points)
	// Shape: Driver-Kernel at or below GDB-Kernel at the smallest delay;
	// both rise toward 100% with increasing delay.
	first, last := points[0], points[len(points)-1]
	if first.DriverPct > first.GDBKernelPct+1 {
		t.Errorf("at smallest delay Driver (%.1f%%) should not exceed GDB-Kernel (%.1f%%)", first.DriverPct, first.GDBKernelPct)
	}
	if last.GDBKernelPct < 90 || last.DriverPct < 90 {
		t.Errorf("at largest delay both should approach 100%%: K=%.1f D=%.1f", last.GDBKernelPct, last.DriverPct)
	}
	if first.DriverPct >= last.DriverPct {
		fmt.Println("note: driver curve not increasing", first.DriverPct, last.DriverPct)
	}
}
