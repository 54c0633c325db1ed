package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// modulePrefix marks the frames a CPU sample is charged to: the
// innermost frame under it names the owning layer.
const modulePrefix = "cosim/internal/"

// layers are the module's packages that run during a benchmark. Each
// gets a <layer>.cpu_share, zero when no sample landed in it, so the
// reported set does not depend on sampling luck.
var layers = []string{"asm", "bus", "core", "dev", "gdb", "harness", "isa", "iss", "obs", "router", "rtos", "server", "sim", "transport"}

// profiled runs fn under a runtime/pprof CPU profile written to a
// temporary file, whose path it returns.
func profiled(fn func()) (string, error) {
	f, err := os.CreateTemp("", "bench-*.pprof")
	if err != nil {
		return "", fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", fmt.Errorf("cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", fmt.Errorf("cpu profile: %w", err)
	}
	return f.Name(), nil
}

func removeFiles(paths []string) {
	for _, p := range paths {
		os.Remove(p)
	}
}

// cpuShares is a profile's CPU time charged two ways. owner charges
// every sample to the innermost cosim/internal/<layer> frame on its
// stack, or to "unowned" when there is none, so the owner shares sum to
// one. gc and syscall are a separate cut of the same samples: memory
// management anywhere on the stack, and a leaf frame inside a system
// call.
type cpuShares struct {
	total       time.Duration
	owner       map[string]time.Duration
	gc, syscall time.Duration
}

// samplePeriod is runtime/pprof's fixed CPU sampling period (100 Hz).
const samplePeriod = 10 * time.Millisecond

// readProfiles merges the profiles at paths with `go tool pprof -traces`
// and charges their samples, then removes the files.
func readProfiles(paths []string) (cpuShares, error) {
	defer removeFiles(paths)
	args := append([]string{"tool", "pprof", "-traces", "-symbolize=none"}, paths...)
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return cpuShares{}, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTraces(out)
}

// parseTraces charges the samples of `pprof -traces` output. Each
// sample block follows a dashed separator: its first line holds the
// sample's value and leaf frame, and the lines after it the callers,
// innermost first.
func parseTraces(out []byte) (cpuShares, error) {
	s := cpuShares{owner: map[string]time.Duration{}}
	var value time.Duration
	var stack []string
	flush := func() {
		if stack != nil {
			s.charge(value, stack)
		}
		stack = nil
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
		case stack == nil && strings.HasPrefix(line, " "):
			fields := strings.Fields(line)
			if len(fields) < 2 {
				continue
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return cpuShares{}, fmt.Errorf("pprof -traces: bad sample value in %q", line)
			}
			value, stack = d, []string{fields[1]}
		case stack != nil && strings.TrimSpace(line) != "":
			stack = append(stack, strings.Fields(line)[0])
		}
	}
	flush()
	return s, sc.Err()
}

// gcFrames mark a stack as memory management: allocation, marking and
// sweeping.
var gcFrames = []string{"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// syscallLeaves are the packages whose leaf frames are a system call in
// progress.
var syscallLeaves = []string{"syscall.", "internal/runtime/syscall.", "runtime/internal/syscall."}

func (s *cpuShares) charge(d time.Duration, stack []string) {
	s.total += d
	owner := "unowned"
	for _, f := range stack {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			owner = rest[:strings.IndexAny(rest+".", "./")]
			break
		}
	}
	s.owner[owner] += d
	if hasPrefix(stack[0], syscallLeaves) {
		s.syscall += d
	}
	for _, f := range stack {
		if hasPrefix(f, gcFrames) {
			s.gc += d
			break
		}
	}
}

func hasPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// put reports the shares. Owners outside layers (a package added later)
// are reported too, so the owner shares always sum to one.
func (s cpuShares) put(r *report) {
	share := func(d time.Duration) float64 { return ratio(float64(d), float64(s.total)) }
	n := int(s.total / samplePeriod)
	ok := n > 0
	for _, l := range layers {
		r.put(l+".cpu_share", unitRatio, share(s.owner[l]), ok, n)
	}
	for owner, d := range s.owner {
		if owner != "unowned" {
			r.put(owner+".cpu_share", unitRatio, share(d), ok, n)
		}
	}
	r.put("runtime.unowned_cpu_share", unitRatio, share(s.owner["unowned"]), ok, n)
	r.put("runtime.gc_cpu_share", unitRatio, share(s.gc), ok, n)
	r.put("transport.syscall_cpu_share", unitRatio, share(s.syscall), ok, n)
}
