package harness

import (
	"fmt"
	"io"
	"time"

	"cosim/internal/core"
	"cosim/internal/router"
	"cosim/internal/rtos"
	"cosim/internal/sim"
)

// Table1Row is one cell row of the paper's Table 1: wall-clock
// co-simulation time per scheme, for a set of simulated durations.
type Table1Row struct {
	Scheme Scheme
	Wall   []time.Duration // one per simulated duration
}

// Table1SimTimes are Table 1's simulated durations: the paper's
// columns, 1000, 10000 and 100000 ms, when full, and otherwise 2, 10
// and 50 ms, the same workload at a scale that runs in seconds.
func Table1SimTimes(full bool) []sim.Time {
	if full {
		return []sim.Time{1000 * sim.MS, 10000 * sim.MS, 100000 * sim.MS}
	}
	return []sim.Time{2 * sim.MS, 10 * sim.MS, 50 * sim.MS}
}

// Table1Scenarios enumerates the runs behind the paper's Table 1, in
// scheme-major order (the table's presentation order).
func Table1Scenarios(simTimes []sim.Time, base Params) []Scenario {
	scens := make([]Scenario, 0, len(Schemes)*len(simTimes))
	for _, s := range Schemes {
		for _, st := range simTimes {
			p := base
			p.Scheme = s
			p.SimTime = st
			scens = append(scens, Scenario{
				Name:   fmt.Sprintf("table1/%v/sim=%v%s", s, st, cpuTag(p)),
				Params: p,
			})
		}
	}
	return scens
}

// cpuTag is the scenario-name suffix for multi-processor sweeps;
// single-CPU names stay as they always were.
func cpuTag(p Params) string {
	if p.CPUs > 1 {
		return fmt.Sprintf("/cpus=%d", p.CPUs)
	}
	return ""
}

// Table1Rows folds a completed Table1Scenarios sweep back into rows.
func Table1Rows(simTimes []sim.Time, outs []RunOutcome) ([]Table1Row, error) {
	if err := FirstError(outs); err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, len(Schemes))
	i := 0
	for _, s := range Schemes {
		row := Table1Row{Scheme: s}
		for range simTimes {
			row.Wall = append(row.Wall, outs[i].Result.Wall)
			i++
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintTable1 renders Table 1 in the paper's layout.
func PrintTable1(w io.Writer, simTimes []sim.Time, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1: Simulation Performance Results (wall-clock per simulated time)\n")
	fmt.Fprintf(w, "%-14s", "Scheme")
	for _, st := range simTimes {
		fmt.Fprintf(w, " %12s", st)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s", r.Scheme)
		for _, d := range r.Wall {
			fmt.Fprintf(w, " %12s", d.Round(time.Millisecond/10))
		}
		fmt.Fprintln(w)
	}
	// Speedups relative to the GDB-Wrapper baseline, as discussed in §5.
	if len(rows) == 3 {
		for _, i := range []int{1, 2} {
			fmt.Fprintf(w, "%-14s", rows[i].Scheme.String()+" spd")
			for j := range rows[i].Wall {
				if rows[i].Wall[j] > 0 {
					fmt.Fprintf(w, " %11.2fx", float64(rows[0].Wall[j])/float64(rows[i].Wall[j]))
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// Figure7Point is one sample of Figure 7: forwarded percentage at a
// given inter-packet delay, for the two proposed schemes.
type Figure7Point struct {
	Delay        sim.Time
	GDBKernelPct float64
	DriverPct    float64
	GDBLat       sim.Time
	DriverLat    sim.Time
}

// Figure7Delays are Figure 7's inter-packet delays, its x axis.
var Figure7Delays = []sim.Time{5 * sim.US, 10 * sim.US, 20 * sim.US, 30 * sim.US, 50 * sim.US, 100 * sim.US}

// figure7Schemes are the two curves of Figure 7, in sweep order.
var figure7Schemes = []Scheme{GDBKernel, DriverKernel}

// Figure7Scenarios enumerates the runs behind Figure 7, % of packets
// forwarded against inter-packet delay for GDB-Kernel and
// Driver-Kernel: one 2 ms run per scheme at each of Figure7Delays,
// delay-major. The Driver-Kernel guest's OS overhead (executed
// instructions) slows its checksum service, so its curve lies below
// GDB-Kernel's at small delays.
func Figure7Scenarios(base Params) []Scenario {
	scens := make([]Scenario, 0, len(Figure7Delays)*len(figure7Schemes))
	for _, d := range Figure7Delays {
		for _, s := range figure7Schemes {
			p := base
			p.Scheme = s
			p.Delay = d
			p.SimTime = 2 * sim.MS
			scens = append(scens, Scenario{
				Name:   fmt.Sprintf("figure7/%v/delay=%v%s", s, d, cpuTag(p)),
				Params: p,
			})
		}
	}
	return scens
}

// Figure7Points folds a completed Figure7Scenarios sweep into points.
func Figure7Points(outs []RunOutcome) ([]Figure7Point, error) {
	if err := FirstError(outs); err != nil {
		return nil, err
	}
	points := make([]Figure7Point, 0, len(Figure7Delays))
	i := 0
	for _, d := range Figure7Delays {
		pt := Figure7Point{Delay: d}
		for _, s := range figure7Schemes {
			res := outs[i].Result
			i++
			if s == GDBKernel {
				pt.GDBKernelPct = res.ForwardedPct()
				pt.GDBLat = res.MeanLat
			} else {
				pt.DriverPct = res.ForwardedPct()
				pt.DriverLat = res.MeanLat
			}
		}
		points = append(points, pt)
	}
	return points, nil
}

// PrintFigure7 renders the Figure 7 series as a table plus an ASCII
// plot of the two curves.
func PrintFigure7(w io.Writer, points []Figure7Point) {
	fmt.Fprintln(w, "Figure 7: % packets forwarded vs inter-packet delay (mean latency in µs)")
	fmt.Fprintf(w, "%-12s %14s %14s %12s %12s\n", "delay", "GDB-Kernel %", "Driver-Kernel %", "lat(GDB)", "lat(Drv)")
	for _, p := range points {
		fmt.Fprintf(w, "%-12s %14.1f %14.1f %12.3f %12.3f\n",
			p.Delay, p.GDBKernelPct, p.DriverPct, float64(p.GDBLat)/float64(sim.US), float64(p.DriverLat)/float64(sim.US))
	}
	fmt.Fprintln(w)
	// ASCII plot: one row per delay, 50 columns = 0..100%.
	const cols = 50
	fmt.Fprintln(w, "  (K = GDB-Kernel, D = Driver-Kernel, * = both)")
	for _, p := range points {
		line := make([]byte, cols+1)
		for i := range line {
			line[i] = ' '
		}
		ki := int(p.GDBKernelPct / 100 * cols)
		di := int(p.DriverPct / 100 * cols)
		if ki > cols {
			ki = cols
		}
		if di > cols {
			di = cols
		}
		line[di] = 'D'
		if ki == di {
			line[ki] = '*'
		} else {
			line[ki] = 'K'
		}
		fmt.Fprintf(w, "%10s |%s|\n", p.Delay, string(line))
	}
}

// LoCReport reproduces the code-size comparison of §5: the overhead of
// the Driver-Kernel scheme over the GDB-Kernel scheme on both sides.
// The SW-side factor counts the guest application plus the device
// driver and kernel support it requires (the paper's "factor 9x ... due
// to the writing of a new driver"); the kernel-side overhead compares
// the two scheme source files (the paper's ≈ +40 % on the SystemC side).
type LoCReport struct {
	GDBAppLines  int     `json:"gdb_app_lines"` // bare-metal application (GDB schemes)
	DrvAppLines  int     `json:"drv_app_lines"` // RTOS application
	DriverLines  int     `json:"driver_lines"`  // co-simulation device driver
	KernelLines  int     `json:"kernel_lines"`  // uKOS kernel
	SWSideFactor float64 `json:"sw_side_factor"`

	GDBKernelLines    int     `json:"gdb_kernel_lines"`    // internal/core/gdbkernel.go
	DriverKernelLines int     `json:"driver_kernel_lines"` // internal/core/driverkernel.go
	KernelSidePct     float64 `json:"kernel_side_pct"`     // Driver-Kernel overhead, %
}

// CountLoC computes the report from the embedded guest sources.
func CountLoC() LoCReport {
	gdbApp, drvApp, driver := router.GuestLines()
	kern, _ := rtos.KernelLines()
	gdbKernel, driverKernel := core.SchemeLines()
	r := LoCReport{
		GDBAppLines:       gdbApp,
		DrvAppLines:       drvApp,
		DriverLines:       driver,
		KernelLines:       kern,
		GDBKernelLines:    gdbKernel,
		DriverKernelLines: driverKernel,
	}
	if gdbApp > 0 {
		r.SWSideFactor = float64(drvApp+driver) / float64(gdbApp)
	}
	if gdbKernel > 0 {
		r.KernelSidePct = 100 * float64(driverKernel-gdbKernel) / float64(gdbKernel)
	}
	return r
}

// PrintLoC renders the code-size comparison.
func PrintLoC(w io.Writer, r LoCReport) {
	fmt.Fprintln(w, "Code size (source lines), §5 comparison:")
	fmt.Fprintf(w, "  GDB schemes, software side:    %4d (bare-metal application)\n", r.GDBAppLines)
	fmt.Fprintf(w, "  Driver-Kernel, software side:  %4d (application %d + driver %d)\n",
		r.DrvAppLines+r.DriverLines, r.DrvAppLines, r.DriverLines)
	fmt.Fprintf(w, "  uKOS kernel (shared RTOS):     %4d\n", r.KernelLines)
	fmt.Fprintf(w, "  SW-side overhead factor:       %.1fx (paper reports ~9x)\n", r.SWSideFactor)
	fmt.Fprintf(w, "  Kernel side, GDB-Kernel:       %4d (gdbkernel.go)\n", r.GDBKernelLines)
	fmt.Fprintf(w, "  Kernel side, Driver-Kernel:    %4d (driverkernel.go)\n", r.DriverKernelLines)
	fmt.Fprintf(w, "  Kernel-side overhead:          %+.0f%% (paper reports ~+40%%)\n", r.KernelSidePct)
}
