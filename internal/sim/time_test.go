package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ps"},
		{1, "1ps"},
		{999, "999ps"},
		{NS, "1ns"},
		{1500, "1500ps"},
		{25 * NS, "25ns"},
		{MS, "1ms"},
		{3 * SEC, "3s"},
		{1001 * US, "1001us"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", uint64(c.in), got, c.want)
		}
	}
}

func TestParseTime(t *testing.T) {
	cases := []struct {
		in   string
		want Time
	}{
		{"0ps", 0},
		{"1ns", NS},
		{"25ns", 25 * NS},
		{"1.5us", 1500 * NS},
		{"100", 100 * PS},
		{"10ms", 10 * MS},
		{"2s", 2 * SEC},
		{" 5 us ", 5 * US},
		{"0.5ns", 500 * PS},
		{"18446744073709551615", MaxTime},
		{"18446744s", 18446744 * SEC},
		// Fractions are exact, not a truncated float64 product.
		{"1.001ns", 1001 * PS},
		{"1.003ns", 1003 * PS},
		{".5ns", 500 * PS},
		{"0.001ns", PS},
		{"2.000ps", 2 * PS}, // zeros finer than 1ps are exact
		{"1.000000000001s", SEC + PS},
		{"18446744.073709551615s", MaxTime},
	}
	for _, c := range cases {
		got, err := ParseTime(c.in)
		if err != nil {
			t.Errorf("ParseTime(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseTime(%q) = %v, want %v", c.in, uint64(got), uint64(c.want))
		}
	}
}

func TestParseTimeErrors(t *testing.T) {
	for _, s := range []string{
		"", "ns", "1xx", "abc", "--3ns",
		// Negative durations, on the integer and the float path.
		"-1ms", "-1.0ms", "-1.0us",
		// Beyond MaxTime (~18446744 s): an unchecked multiply would wrap
		// 18446745 s to ~0.93 s, an unchecked float conversion to 2^63.
		"18446745s", "18446744073709551616", "18446744073709551616.0",
		"18446744073709552.0us",
		"99999999999999999999.0s",
		"18446744.073709551616s",
		// A non-zero digit finer than 1ps.
		"2.5ps", "0.0001ns", "0.0004ns", "1.0000000000001s",
		// Not a decimal number.
		".ns", "1.2.3ns", "1.-2ns",
	} {
		if _, err := ParseTime(s); err == nil {
			t.Errorf("ParseTime(%q) succeeded, want error", s)
		}
	}
}

func TestTimeRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		tm := Time(v)
		back, err := ParseTime(tm.String())
		return err == nil && back == tm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeSaturatingHelpers(t *testing.T) {
	cases := []struct {
		name string
		got  Time
		want Time
	}{
		{"add", Time(3).Add(4), 7},
		{"add-saturates", MaxTime.Add(1), MaxTime},
		{"add-near-max", (MaxTime - 2).Add(5), MaxTime},
		{"sub", Time(7).Sub(4), 3},
		{"sub-saturates", Time(4).Sub(7), 0},
		{"addcycles", Time(10).AddCycles(3, 5*PS), 25},
		{"addcycles-zero-period", Time(10).AddCycles(1<<40, 0), 10},
		{"addcycles-mul-overflow", Time(0).AddCycles(1<<63, 4*PS), MaxTime},
		{"addcycles-sum-overflow", (MaxTime - 1).AddCycles(1, 2*PS), MaxTime},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %d, want %d", c.name, uint64(c.got), uint64(c.want))
		}
	}
}

func TestTimeOrderingHelpers(t *testing.T) {
	if !Time(1).Before(2) || Time(2).Before(2) || Time(3).Before(2) {
		t.Error("Before misordered")
	}
	if Time(1).After(2) || Time(2).After(2) || !Time(3).After(2) {
		t.Error("After misordered")
	}
	if Time(1).AtOrAfter(2) || !Time(2).AtOrAfter(2) || !Time(3).AtOrAfter(2) {
		t.Error("AtOrAfter misordered")
	}
}

// Saturation invariants hold for arbitrary operands: Add never ends up
// below either operand, and Sub never exceeds the minuend.
func TestTimeSaturationProperties(t *testing.T) {
	add := func(a, b uint64) bool {
		s := Time(a).Add(Time(b))
		return s >= Time(a) && s >= Time(b)
	}
	if err := quick.Check(add, nil); err != nil {
		t.Error(err)
	}
	sub := func(a, b uint64) bool { return Time(a).Sub(Time(b)) <= Time(a) }
	if err := quick.Check(sub, nil); err != nil {
		t.Error(err)
	}
}
