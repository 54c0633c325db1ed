// Package sim implements a SystemC-like discrete-event simulation kernel.
//
// The kernel follows the OSCI SystemC 2.0 scheduler semantics: an
// evaluation phase runs every runnable process to completion; writes to
// primitive channels such as Signal are deferred to the update phase; update may trigger delta
// notifications, which start a new evaluation phase at the same simulated
// time; when no delta work remains, simulated time advances to the next
// timed notification.
//
// Every process is a method (SC_METHOD): a callback that runs to
// completion and never blocks. There are no thread processes; a model
// that must wait re-arms an event it is sensitive to and returns.
//
// On top of the plain SystemC semantics the package implements the kernel
// extensions proposed by Fummi et al. (DATE 2004) for native ISS
// co-simulation: cycle hooks invoked at the beginning and end of every
// simulation cycle (see Kernel.AddCycleHook and Kernel.AddEndCycleHook),
// ISS ports (IssIn, IssOut) and ISS processes (Kernel.IssProcess).
package sim

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// Time is a simulated time stamp or duration, measured in picoseconds.
// The zero Time is the beginning of simulation.
type Time uint64

// Time units, expressed in picoseconds.
const (
	PS  Time = 1
	NS  Time = 1000 * PS
	US  Time = 1000 * NS
	MS  Time = 1000 * US
	SEC Time = 1000 * MS
)

// MaxTime is the largest representable simulation time.
const MaxTime Time = ^Time(0)

// Time is an unsigned 64-bit picosecond count, so raw `+`/`-` wrap
// silently on overflow and raw `<` misorders wrapped values — the bug
// class behind the PR 1 targetTime regression. Code outside this
// package must use the saturating helpers below instead of raw
// arithmetic; the `timesafe` analyzer (cmd/cosimvet) enforces that.

// Add returns t+d, saturating at MaxTime instead of wrapping.
func (t Time) Add(d Time) Time {
	s := t + d
	if s < t {
		return MaxTime
	}
	return s
}

// Sub returns t-u, saturating at zero when u is later than t.
func (t Time) Sub(u Time) Time {
	if u > t {
		return 0
	}
	return t - u
}

// AddCycles returns t + n*period, saturating at MaxTime when the cycle
// span (or the sum) overflows the picosecond range. It is the
// wraparound-safe form of the cycle→time coupling the co-simulation
// schemes apply on every guest message.
func (t Time) AddCycles(n uint64, period Time) Time {
	hi, lo := bits.Mul64(n, uint64(period))
	if hi != 0 {
		return MaxTime
	}
	return t.Add(Time(lo))
}

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// AtOrAfter reports whether t is no earlier than u.
func (t Time) AtOrAfter(u Time) bool { return t >= u }

// String formats the time using the largest unit that divides it evenly,
// e.g. "25ns" or "1500ps".
func (t Time) String() string {
	type unit struct {
		div  Time
		name string
	}
	units := []unit{{SEC, "s"}, {MS, "ms"}, {US, "us"}, {NS, "ns"}, {PS, "ps"}}
	for _, u := range units {
		if t >= u.div && t%u.div == 0 {
			return strconv.FormatUint(uint64(t/u.div), 10) + u.name
		}
	}
	return strconv.FormatUint(uint64(t), 10) + "ps"
}

// ParseTime parses strings such as "10ns", "1.5us" or "100" (bare
// picoseconds). It is the inverse of Time.String. Fractions are exact:
// "1.001ns" is 1001ps, and a non-zero digit finer than 1ps ("2.5ps",
// "0.0001ns") is an error. Negative values and values beyond MaxTime
// are errors, never wrapped.
func ParseTime(s string) (Time, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("sim: empty time")
	}
	i := len(s)
	for i > 0 {
		c := s[i-1]
		if c >= '0' && c <= '9' || c == '.' {
			break
		}
		i--
	}
	num, suffix := s[:i], strings.TrimSpace(s[i:])
	var mult Time
	switch suffix {
	case "", "ps":
		mult = PS
	case "ns":
		mult = NS
	case "us", "µs":
		mult = US
	case "ms":
		mult = MS
	case "s", "sec":
		mult = SEC
	default:
		return 0, fmt.Errorf("sim: unknown time unit %q", suffix)
	}
	if strings.HasPrefix(num, "-") {
		return 0, fmt.Errorf("sim: negative time %q", s)
	}
	// The integer and fraction digits are parsed exactly: a fraction
	// digit is worth mult/10, mult/100, ... picoseconds, and a non-zero
	// digit worth less than 1ps is an error, not a silent truncation.
	whole, frac, _ := strings.Cut(num, ".")
	if whole == "" && frac == "" {
		return 0, fmt.Errorf("sim: bad time %q", s)
	}
	var v uint64
	if whole != "" {
		var err error
		if v, err = strconv.ParseUint(whole, 10, 64); err != nil {
			return 0, fmt.Errorf("sim: bad time %q: %v", s, err)
		}
	}
	fracPS, place := uint64(0), uint64(mult)
	for _, d := range []byte(frac) {
		if d < '0' || d > '9' {
			return 0, fmt.Errorf("sim: bad time %q", s)
		}
		if place == 1 {
			if d != '0' {
				return 0, fmt.Errorf("sim: time %q is finer than 1ps", s)
			}
			continue
		}
		place /= 10
		fracPS += uint64(d-'0') * place
	}
	hi, ps := bits.Mul64(v, uint64(mult))
	ps, carry := bits.Add64(ps, fracPS, 0)
	if hi != 0 || carry != 0 {
		return 0, fmt.Errorf("sim: time %q out of range", s)
	}
	return Time(ps), nil
}
