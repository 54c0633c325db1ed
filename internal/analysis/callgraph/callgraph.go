// Package callgraph builds a conservative per-package call graph plus a
// per-function lock-acquisition summary, the shared substrate for the
// interprocedural cosimvet analyzers (lockorder, detsafe).
//
// The graph is deliberately over-approximate where Go's dynamism makes
// precise resolution impossible without whole-program analysis:
//
//   - Direct calls to package-local functions and methods resolve to
//     exactly one edge.
//   - Interface method calls resolve to every package-local method with
//     the same name (any of them could be the dynamic target).
//   - Calls through function-typed variables, fields and parameters
//     resolve to every function value observed flowing into that
//     variable anywhere in the package (assignments, composite-literal
//     fields, and arguments at package-local call sites).
//
// Over-approximation is the safe direction for the checks built on top:
// a spurious edge can at worst produce a suppressible false positive,
// while a missing edge would silently hide a real lock-order inversion
// or a nondeterminism source. Calls that cannot be resolved at all
// (cross-package calls, function values received from outside the
// package) produce no edge; the analyzers that care layer their own
// cross-package approximations on top (see lockorder's class-owner
// method rule).
//
// The lock summary records, per function body, the ordered Lock/RLock
// and Unlock/RUnlock events on named mutex classes — sync.Mutex or
// sync.RWMutex fields of named structs, or package-level mutex
// variables — in source order, plus whether a release is deferred.
// Mutex classes that appear in `guarded by <mu>` field annotations (the
// ones lockedfield already parses) are surfaced via GuardedClasses so
// clients can seed their tracked-class sets from the same source of
// truth the rest of the suite uses.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"cosim/internal/analysis"
)

// Class names one mutex: the defining package, the owning named type
// (empty for package-level variables), and the field or variable name.
type Class struct {
	Pkg   string // full package path of the defining package
	Type  string // owning named type, "" for package-level vars
	Field string // mutex field or variable name
}

// String renders the class as "pkg.Type.Field" using the last element
// of the package path, e.g. "dev.Window.mu".
func (c Class) String() string {
	pkg := c.Pkg
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		pkg = pkg[i+1:]
	}
	if c.Type == "" {
		return pkg + "." + c.Field
	}
	return pkg + "." + c.Type + "." + c.Field
}

// Matches reports whether the class is the one named by (pkgSuffix,
// typeName, field). The package is matched by path suffix so specs
// written against repo packages also match analyzer test fixtures.
func (c Class) Matches(pkgSuffix, typeName, field string) bool {
	return c.Type == typeName && c.Field == field && strings.HasSuffix(c.Pkg, pkgSuffix)
}

// LockEvent is one Lock/Unlock call in a function body, in source order.
type LockEvent struct {
	Class   Class
	Pos     token.Pos
	Release bool // Unlock/RUnlock rather than Lock/RLock
	Read    bool // RLock/RUnlock
	Defer   bool // appears in a defer statement (releases held to return)
}

// Edge is one call site resolved to a package-local callee.
type Edge struct {
	Callee  *Node
	Call    *ast.CallExpr
	Pos     token.Pos
	Dynamic bool // resolved by over-approximation, not a direct call
}

// Node is one function body: a declared function or method, or a
// function literal.
type Node struct {
	Fn   *types.Func   // nil for function literals
	Decl *ast.FuncDecl // nil for function literals
	Lit  *ast.FuncLit  // nil for declared functions
	Body *ast.BlockStmt
	Name string // "Type.Method", "Func", or "Parent.func@line"

	Calls []Edge      // outgoing call edges, in source order
	Locks []LockEvent // lock events directly in this body, in source order
}

// Graph is the package-wide call graph.
type Graph struct {
	Nodes []*Node

	pass  *analysis.Pass
	byFn  map[*types.Func]*Node
	byLit map[*ast.FuncLit]*Node
	// bindings maps a function-typed variable/field/parameter to every
	// function value observed flowing into it within the package.
	bindings map[types.Object][]*Node
	// byMethodName maps a method name to every package-local method
	// bearing it, the dynamic-dispatch over-approximation.
	byMethodName map[string][]*Node
}

// Lookup returns the node for a declared function or method, or nil.
func (g *Graph) Lookup(fn *types.Func) *Node { return g.byFn[fn] }

// NodeFor returns the node for a function declaration, or nil.
func (g *Graph) NodeFor(decl *ast.FuncDecl) *Node {
	if decl == nil {
		return nil
	}
	if obj, ok := g.pass.TypesInfo.Defs[decl.Name].(*types.Func); ok {
		return g.byFn[obj]
	}
	return nil
}

// Build constructs the call graph and lock summaries for one package.
func Build(pass *analysis.Pass) *Graph {
	g := &Graph{
		pass:         pass,
		byFn:         make(map[*types.Func]*Node),
		byLit:        make(map[*ast.FuncLit]*Node),
		bindings:     make(map[types.Object][]*Node),
		byMethodName: make(map[string][]*Node),
	}
	g.collectNodes()
	g.collectBindings()
	for _, n := range g.Nodes {
		g.resolveCalls(n)
		g.collectLocks(n)
	}
	return g
}

// collectNodes creates a node per function declaration and per function
// literal. Literal nodes are named after their enclosing declaration.
func (g *Graph) collectNodes() {
	for _, f := range g.pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := g.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			name := fd.Name.Name
			if recv := analysis.ReceiverTypeName(fd); recv != "" {
				name = recv + "." + name
			}
			n := &Node{Fn: fn, Decl: fd, Body: fd.Body, Name: name}
			g.Nodes = append(g.Nodes, n)
			if fn != nil {
				g.byFn[fn] = n
				if fd.Recv != nil {
					g.byMethodName[fd.Name.Name] = append(g.byMethodName[fd.Name.Name], n)
				}
			}
			parent := name
			ast.Inspect(fd.Body, func(x ast.Node) bool {
				if lit, ok := x.(*ast.FuncLit); ok {
					ln := &Node{
						Lit:  lit,
						Body: lit.Body,
						Name: parent + ".func@" + itoa(g.pass.Fset.Position(lit.Pos()).Line),
					}
					g.Nodes = append(g.Nodes, ln)
					g.byLit[lit] = ln
				}
				return true
			})
		}
	}
}

// funcValue resolves an expression used as a value to the node of the
// function it denotes: a reference to a declared function, a method
// value, or a function literal. Returns nil for anything else.
func (g *Graph) funcValue(e ast.Expr) *Node {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return g.byLit[e]
	case *ast.Ident:
		if fn, ok := g.pass.TypesInfo.Uses[e].(*types.Func); ok {
			return g.byFn[fn]
		}
	case *ast.SelectorExpr:
		if fn, ok := g.pass.TypesInfo.Uses[e.Sel].(*types.Func); ok {
			return g.byFn[fn]
		}
	}
	return nil
}

// bindTarget resolves an expression used as an assignment target (or a
// composite-literal key) to the variable object it denotes.
func (g *Graph) bindTarget(e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := g.pass.TypesInfo.Defs[e]; obj != nil {
			return obj
		}
		return g.pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		return g.pass.TypesInfo.Uses[e.Sel]
	}
	return nil
}

// collectBindings records every function value observed flowing into a
// variable, struct field, or package-local call parameter.
func (g *Graph) collectBindings() {
	bind := func(target types.Object, val ast.Expr) {
		if target == nil {
			return
		}
		if n := g.funcValue(val); n != nil {
			g.bindings[target] = append(g.bindings[target], n)
		}
	}
	for _, f := range g.pass.Files {
		ast.Inspect(f, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				if len(x.Lhs) == len(x.Rhs) {
					for i := range x.Lhs {
						bind(g.bindTarget(x.Lhs[i]), x.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(x.Names) == len(x.Values) {
					for i := range x.Names {
						bind(g.pass.TypesInfo.Defs[x.Names[i]], x.Values[i])
					}
				}
			case *ast.CompositeLit:
				for _, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							bind(g.pass.TypesInfo.Uses[key], kv.Value)
						}
					}
				}
			case *ast.CallExpr:
				// A function value passed to a package-local function
				// binds to the corresponding parameter.
				callee := g.calleeFunc(x)
				if callee == nil {
					return true
				}
				sig, ok := callee.Type().(*types.Signature)
				if !ok {
					return true
				}
				for i, arg := range x.Args {
					if i >= sig.Params().Len() {
						break // variadic tail; parameter identity is the slice
					}
					bind(sig.Params().At(i), arg)
				}
			}
			return true
		})
	}
}

// calleeFunc returns the *types.Func a call expression statically
// resolves to, or nil for dynamic calls.
func (g *Graph) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := g.pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := g.pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// resolveCalls walks one body (not descending into nested function
// literals, which are their own nodes) and records outgoing edges.
func (g *Graph) resolveCalls(n *Node) {
	walkBody(n.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		g.resolveCall(n, call)
		return true
	})
}

func (g *Graph) resolveCall(n *Node, call *ast.CallExpr) {
	add := func(callee *Node, dynamic bool) {
		if callee != nil && callee != n {
			n.Calls = append(n.Calls, Edge{Callee: callee, Call: call, Pos: call.Pos(), Dynamic: dynamic})
		}
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		add(g.byLit[fun], false)
	case *ast.Ident:
		switch obj := g.pass.TypesInfo.Uses[fun].(type) {
		case *types.Func:
			add(g.byFn[obj], false)
		case *types.Var:
			for _, cand := range g.bindings[obj] {
				add(cand, true)
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := g.pass.TypesInfo.Selections[fun]; ok {
			switch sel.Kind() {
			case types.FieldVal:
				// Call through a function-typed field.
				if v, ok := sel.Obj().(*types.Var); ok {
					for _, cand := range g.bindings[v] {
						add(cand, true)
					}
				}
			case types.MethodVal, types.MethodExpr:
				fn, _ := sel.Obj().(*types.Func)
				if fn == nil {
					return
				}
				if node := g.byFn[fn]; node != nil {
					add(node, false)
					return
				}
				// Interface method declared in this package: any
				// package-local method with the name could be the
				// dynamic target.
				if types.IsInterface(sel.Recv()) && fn.Pkg() == g.pass.Pkg {
					for _, cand := range g.byMethodName[fn.Name()] {
						add(cand, true)
					}
				}
			}
			return
		}
		// Package-qualified call (pkg.F) or unqualified selector.
		if fn, ok := g.pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			add(g.byFn[fn], false)
		} else if v, ok := g.pass.TypesInfo.Uses[fun.Sel].(*types.Var); ok {
			for _, cand := range g.bindings[v] {
				add(cand, true)
			}
		}
	}
}

// walkBody traverses stmts without descending into nested function
// literals (their bodies belong to their own nodes).
func walkBody(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		return fn(x)
	})
}

// collectLocks records the ordered lock events of one body.
func (g *Graph) collectLocks(n *Node) {
	inDefer := make(map[*ast.CallExpr]bool)
	walkBody(n.Body, func(x ast.Node) bool {
		if d, ok := x.(*ast.DeferStmt); ok {
			inDefer[d.Call] = true
		}
		return true
	})
	walkBody(n.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		var release, read bool
		switch sel.Sel.Name {
		case "Lock":
		case "RLock":
			read = true
		case "Unlock":
			release = true
		case "RUnlock":
			release, read = true, true
		default:
			return true
		}
		// The method must belong to sync.Mutex or sync.RWMutex.
		fn, ok := g.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return true
		}
		cls, ok := g.mutexClass(sel.X)
		if !ok {
			return true
		}
		n.Locks = append(n.Locks, LockEvent{
			Class:   cls,
			Pos:     call.Pos(),
			Release: release,
			Read:    read,
			Defer:   inDefer[call],
		})
		return true
	})
}

// mutexClass names the mutex behind a Lock/Unlock receiver expression:
// a field selector (d.mu, w.state.mu → owning named type + field) or a
// package-level variable. Local mutex variables have no global identity
// and return ok=false.
func (g *Graph) mutexClass(e ast.Expr) (Class, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		sel, ok := g.pass.TypesInfo.Selections[e]
		if !ok || sel.Kind() != types.FieldVal {
			// Possibly a package-qualified variable (pkg.muVar).
			if v, ok := g.pass.TypesInfo.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil && isPackageLevel(v) {
				return Class{Pkg: v.Pkg().Path(), Field: v.Name()}, true
			}
			return Class{}, false
		}
		field, ok := sel.Obj().(*types.Var)
		if !ok || field.Pkg() == nil {
			return Class{}, false
		}
		owner := namedTypeName(sel.Recv())
		if owner == "" {
			return Class{}, false
		}
		return Class{Pkg: field.Pkg().Path(), Type: owner, Field: field.Name()}, true
	case *ast.Ident:
		if v, ok := g.pass.TypesInfo.Uses[e].(*types.Var); ok && v.Pkg() != nil && isPackageLevel(v) {
			return Class{Pkg: v.Pkg().Path(), Field: v.Name()}, true
		}
	}
	return Class{}, false
}

func isPackageLevel(v *types.Var) bool {
	return v.Parent() != nil && v.Parent() == v.Pkg().Scope()
}

func namedTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// TransitiveAcquires returns every lock class acquired by n or by any
// node reachable from it through call edges, mapped to a shortest call
// path (n first, the directly-acquiring node last). Release events are
// ignored: for ordering checks the acquisition alone is what matters.
func (g *Graph) TransitiveAcquires(n *Node) map[Class][]*Node {
	out := make(map[Class][]*Node)
	type item struct {
		node *Node
		path []*Node
	}
	visited := map[*Node]bool{n: true}
	queue := []item{{n, []*Node{n}}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		for _, ev := range it.node.Locks {
			if ev.Release {
				continue
			}
			if _, seen := out[ev.Class]; !seen {
				out[ev.Class] = it.path
			}
		}
		for _, e := range it.node.Calls {
			if !visited[e.Callee] {
				visited[e.Callee] = true
				path := append(append([]*Node(nil), it.path...), e.Callee)
				queue = append(queue, item{e.Callee, path})
			}
		}
	}
	return out
}

var guardRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_.]*)`)

// GuardedClasses returns the mutex classes named by `guarded by <mu>`
// struct-field annotations in the package — the same annotations
// lockedfield enforces — so interprocedural clients can seed their
// tracked-class sets from them.
func GuardedClasses(pass *analysis.Pass) map[Class]bool {
	out := make(map[Class]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(x ast.Node) bool {
			ts, ok := x.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			typeName := ts.Name.Name
			// Mutex-typed fields of this struct, by name.
			mutexFields := make(map[string]bool)
			for _, fld := range st.Fields.List {
				if !isMutexType(pass, fld.Type) {
					continue
				}
				for _, name := range fld.Names {
					mutexFields[name.Name] = true
				}
			}
			for _, fld := range st.Fields.List {
				for _, cg := range []*ast.CommentGroup{fld.Comment, fld.Doc} {
					if cg == nil {
						continue
					}
					m := guardRe.FindStringSubmatch(cg.Text())
					if m == nil {
						continue
					}
					guard := m[1]
					if i := strings.LastIndex(guard, "."); i >= 0 {
						guard = guard[i+1:]
					}
					if mutexFields[guard] && pass.Pkg != nil {
						out[Class{Pkg: pass.Pkg.Path(), Type: typeName, Field: guard}] = true
					}
				}
			}
			return true
		})
	}
	return out
}

func isMutexType(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}
