// Package obsnames guards the observability layer's zero-allocation
// contract and naming grammar.
//
// The obs design (DESIGN.md §5.4) resolves every metric once at attach
// time and stores the handle; per-cycle and per-message code then calls
// Inc/Add/Set on the handle. A Registry.Counter/Gauge/Histogram lookup
// whose name is *built* at the call site (fmt.Sprintf, string
// concatenation) allocates, so it is only legal in cold construction
// code: `init` methods, `New*`/`Attach*` constructors. Passing a
// pre-resolved name held in a variable or field does not allocate and
// stays legal everywhere.
//
// Independently, every name in the per-CPU `driver.cpuN.*` namespace —
// whether a literal or a Sprintf format — must use a metric from the
// documented set (README "Observability"): the aggregates are asserted
// to equal the per-CPU sums, so an off-grammar name would silently fall
// out of that reconciliation. The `transport.<backend>.*` namespace is
// held to the same rule with its own metric set.
package obsnames

import (
	"go/ast"
	"go/constant"
	"regexp"
	"sort"
	"strings"

	"cosim/internal/analysis"
)

// Analyzer implements the rule.
var Analyzer = &analysis.Analyzer{
	Name: "obsnames",
	Doc:  "flags obs metric names built dynamically on hot paths and validates the driver.cpuN.* naming grammar",
	Run:  run,
}

// PerCPUMetrics is the documented driver.cpuN.* metric set — the
// per-CPU counters/gauges whose aggregates the README guarantees to
// reconcile. Extending the per-CPU namespace means extending this set
// (and the README table) in the same change.
var PerCPUMetrics = map[string]bool{
	"messages":        true,
	"interrupts":      true,
	"pending_reads":   true,
	"dmi_hits":        true,
	"dmi_misses":      true,
	"dmi_revocations": true,
}

// TransportMetrics is the documented transport.<backend>.* metric set
// (README "Observability"); the backend segment is the transport name.
var TransportMetrics = map[string]bool{
	"pairs":    true,
	"tx_bytes": true,
	"rx_bytes": true,
}

var (
	perCPURe    = regexp.MustCompile(`^driver\.cpu(?:\d+|%d)\.([a-z0-9_.]+)$`)
	transportRe = regexp.MustCompile(`^transport\.(?:[a-z0-9_-]+|%s)\.([a-z0-9_.]+)$`)
)

// sortedKeys renders a metric set for diagnostics.
func sortedKeys(m map[string]bool) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// coldFunc reports whether fn may build metric names dynamically:
// construction-time code runs once per attachment, not per cycle.
func coldFunc(name string) bool {
	return name == "init" ||
		strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") ||
		strings.HasPrefix(name, "Attach") || strings.HasPrefix(name, "attach")
}

func run(pass *analysis.Pass) (any, error) {
	check := func(call *ast.CallExpr, enclosing string) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) == 0 {
			return
		}
		switch sel.Sel.Name {
		case "Counter", "Gauge", "Histogram":
		default:
			return
		}
		recv, ok := pass.TypesInfo.Types[sel.X]
		if !ok || !analysis.NamedType(recv.Type, "internal/obs", "Registry") {
			return
		}
		arg := call.Args[0]
		if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			checkGrammar(pass, arg, constant.StringVal(tv.Value))
			return
		}
		switch a := arg.(type) {
		case *ast.CallExpr:
			// A call in argument position (fmt.Sprintf and friends)
			// allocates the name per lookup.
			if fmtStr, ok := sprintfFormat(pass, a); ok {
				checkGrammar(pass, arg, fmtStr)
			}
			if !coldFunc(enclosing) {
				pass.Reportf(arg.Pos(), "obs metric name built dynamically in %s (a hot path); resolve the handle in a constructor/init and reuse it", enclosing)
			}
		case *ast.BinaryExpr:
			if !coldFunc(enclosing) {
				pass.Reportf(arg.Pos(), "obs metric name concatenated in %s (a hot path); resolve the handle in a constructor/init and reuse it", enclosing)
			}
		}
		// Identifiers, selectors and index expressions pass: looking up
		// a pre-resolved name string does not allocate.
	}

	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					check(call, name)
				}
				return true
			})
		}
	}
	return nil, nil
}

// sprintfFormat extracts the constant format string of a fmt.Sprintf
// call, if that is what the expression is.
func sprintfFormat(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sprintf" || len(call.Args) == 0 {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != "fmt" {
		return "", false
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// checkGrammar validates a known name (literal or Sprintf format)
// against the per-CPU and transport namespace grammars.
func checkGrammar(pass *analysis.Pass, at ast.Expr, name string) {
	if strings.HasPrefix(name, "transport.") {
		m := transportRe.FindStringSubmatch(name)
		if m == nil {
			pass.Reportf(at.Pos(), "obs name %q is in the transport.* namespace but does not match the transport.<backend>.<metric> grammar", name)
			return
		}
		if metric := m[1]; !TransportMetrics[metric] {
			pass.Reportf(at.Pos(), "obs name %q uses undocumented transport metric %q (documented: %s); update obsnames.TransportMetrics and the README together", name, metric, sortedKeys(TransportMetrics))
		}
		return
	}
	if !strings.HasPrefix(name, "driver.cpu") {
		return
	}
	m := perCPURe.FindStringSubmatch(name)
	if m == nil {
		pass.Reportf(at.Pos(), "obs name %q is in the driver.cpuN.* namespace but does not match the driver.cpu<N>.<metric> grammar", name)
		return
	}
	// Histogram snapshots flatten as <metric>.count/.sum/.max; accept
	// the bare metric name here.
	metric := m[1]
	if !PerCPUMetrics[metric] {
		pass.Reportf(at.Pos(), "obs name %q uses undocumented per-CPU metric %q (documented: %s); update obsnames.PerCPUMetrics and the README together", name, metric, sortedKeys(PerCPUMetrics))
	}
}
