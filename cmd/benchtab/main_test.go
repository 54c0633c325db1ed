package main

import (
	"flag"
	"strings"
	"testing"
)

// TestUsageShowsOneDefaultPerFlag: -h prints each flag's default once.
// A flag whose value type prints its own zero as something else (the
// -scheme filter's Scheme(-1) sentinel did) would add a second,
// meaningless "(default Scheme(-1))" after the usage text's own.
func TestUsageShowsOneDefaultPerFlag(t *testing.T) {
	var o options
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	o.register(fs)
	var usage strings.Builder
	fs.SetOutput(&usage)
	fs.PrintDefaults()
	if strings.Contains(usage.String(), "Scheme(") {
		t.Errorf("usage shows a Scheme( value:\n%s", usage.String())
	}
	for _, line := range strings.Split(usage.String(), "\n") {
		if strings.Count(line, "(default") > 1 {
			t.Errorf("usage line shows two defaults: %q", line)
		}
	}
}
