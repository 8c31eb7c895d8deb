package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockedBlocking flags operations that can block for unbounded time
// while a sync.Mutex or sync.RWMutex is held. A goroutine parked on a
// channel or a socket with a mutex held convoys every other goroutine
// needing that mutex — in the lock-heavy live runtime and management
// channel this turns one slow peer into a stalled dataplane.
//
// The lock tracking is an intra-procedural linear walk of each function
// body: x.Lock()/x.RLock() marks the mutex held, x.Unlock()/x.RUnlock()
// releases it, `defer x.Unlock()` keeps it held to the end of the body.
// While any mutex is held it reports:
//
//   - channel sends and receives;
//   - select statements without a default clause;
//   - sync.WaitGroup.Wait;
//   - method calls on net package values (conn reads/writes/accepts);
//   - io.Reader/io.Writer interface reads and writes (and the io
//     package's ReadFull/ReadAll/Copy helpers) — socket I/O usually
//     hides behind these interfaces;
//   - time.Sleep.
//
// Blocking is also tracked interprocedurally: a call to a module
// function whose body (or any static callee up to LockedBlockingDepth
// edges deep) performs one of the operations above is reported at the
// mutex-holding call site, with the call chain and the blocking
// operation's position in the message. A helper that does channel I/O
// two frames down no longer hides the convoy from the analyzer.
//
// Branches are analyzed with a copy of the held set, so a conditional
// unlock does not leak out of its branch. Function literals are skipped:
// a closure body runs at an unknown time under unknown locks.
var LockedBlocking = &Analyzer{
	Name: "lockedblocking",
	Doc:  "flag blocking operations performed (or reachable by call) while a sync mutex is held",
	Run:  runLockedBlocking,
}

// LockedBlockingDepth bounds how many static call edges the analyzer
// follows below a lock site looking for a blocking operation
// (cmd/sdme-vet -lockdepth). Depth 0 disables the interprocedural pass.
var LockedBlockingDepth = 3

func runLockedBlocking(pass *Pass) error {
	c := &lockChecker{pass: pass, summaries: make(map[*FuncInfo]*blockSummary)}
	forEachFunc(pass.Pkg, func(fd *ast.FuncDecl) {
		c.block(fd.Body.List, make(map[string]token.Pos))
	})
	return nil
}

// lockChecker walks one function body.
type lockChecker struct {
	pass *Pass
	// summaries memoizes per-function blocking summaries for the
	// interprocedural pass. A nil entry means "does not block".
	summaries map[*FuncInfo]*blockSummary
	inFlight  map[*FuncInfo]bool
}

// heldNames renders the held set for messages, deterministic order.
func heldNames(held map[string]token.Pos) string {
	names := make([]string, 0, len(held))
	for n := range held {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// block walks a statement list, threading the held-lock set through it.
// The map is mutated in place for sequential flow; branches get copies.
func (c *lockChecker) block(stmts []ast.Stmt, held map[string]token.Pos) {
	for _, s := range stmts {
		c.stmt(s, held)
	}
}

// copyHeld clones the held set for branch analysis.
func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func (c *lockChecker) stmt(s ast.Stmt, held map[string]token.Pos) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if name, kind, ok := c.mutexOp(call); ok {
				switch kind {
				case "Lock", "RLock":
					held[name] = call.Pos()
				case "Unlock", "RUnlock":
					delete(held, name)
				}
				return
			}
		}
		c.expr(s.X, held)
	case *ast.DeferStmt:
		// A deferred unlock keeps the mutex held to the end of the
		// body, which the linear walk models by simply not releasing.
		// Other deferred calls run after the body too — their blocking
		// behaviour is not attributable to this point, so skip them.
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the caller's locks;
		// only evaluate the call's arguments.
		for _, arg := range s.Call.Args {
			c.expr(arg, held)
		}
	case *ast.SendStmt:
		if len(held) > 0 {
			c.pass.Reportf(s.Pos(), "channel send while mutex %s is held", heldNames(held))
		}
		c.expr(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.expr(e, held)
		}
		for _, e := range s.Lhs {
			c.expr(e, held)
		}
	case *ast.DeclStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				c.expr(e, held)
				return false
			}
			return true
		})
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.expr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init, held)
		}
		c.expr(s.Cond, held)
		c.block(s.Body.List, copyHeld(held))
		if s.Else != nil {
			c.stmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		inner := copyHeld(held)
		if s.Init != nil {
			c.stmt(s.Init, inner)
		}
		if s.Cond != nil {
			c.expr(s.Cond, inner)
		}
		c.block(s.Body.List, inner)
		if s.Post != nil {
			c.stmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		c.expr(s.X, held)
		c.block(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, held)
		}
		if s.Tag != nil {
			c.expr(s.Tag, held)
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.block(cl.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.block(cl.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		if len(held) > 0 && !selectHasDefault(s) {
			c.pass.Reportf(s.Pos(), "select without default blocks while mutex %s is held", heldNames(held))
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CommClause); ok {
				c.block(cl.Body, copyHeld(held))
			}
		}
	case *ast.BlockStmt:
		c.block(s.List, copyHeld(held))
	case *ast.LabeledStmt:
		c.stmt(s.Stmt, held)
	}
}

// selectHasDefault reports whether a select carries a default clause.
func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cc := range s.Body.List {
		if cl, ok := cc.(*ast.CommClause); ok && cl.Comm == nil {
			return true
		}
	}
	return false
}

// expr inspects an expression tree for blocking operations, skipping
// nested function literals.
func (c *lockChecker) expr(e ast.Expr, held map[string]token.Pos) {
	if e == nil || len(held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				c.pass.Reportf(n.Pos(), "channel receive while mutex %s is held", heldNames(held))
			}
		case *ast.CallExpr:
			c.blockingCall(n, held)
		}
		return true
	})
}

// blockingCall reports calls that block — directly (WaitGroup.Wait,
// net/io I/O, time.Sleep) or through a module callee whose summary says
// some path blocks.
func (c *lockChecker) blockingCall(call *ast.CallExpr, held map[string]token.Pos) {
	if desc, ok := directBlockingCall(c.pass, call); ok {
		c.pass.Reportf(call.Pos(), "%s while mutex %s is held", desc, heldNames(held))
		return
	}
	if LockedBlockingDepth <= 0 {
		return
	}
	callee := c.pass.Prog.Callee(c.pass.Pkg, call)
	if callee == nil {
		return
	}
	if s := c.summary(callee, LockedBlockingDepth); s != nil {
		c.pass.Reportf(call.Pos(), "call to %s may block (%s via %s at %s) while mutex %s is held",
			callee.Name(), s.op, strings.Join(s.chain, " → "),
			c.pass.Pkg.Fset.Position(s.pos), heldNames(held))
	}
}

// blockSummary records why a function may block: the operation, its
// position, and the call chain from the summarized function down to it.
type blockSummary struct {
	op    string
	pos   token.Pos
	chain []string
}

// summary computes (memoized) whether fi can block within depth call
// edges. Recursion through a cycle under-approximates to non-blocking
// for the in-flight functions.
func (c *lockChecker) summary(fi *FuncInfo, depth int) *blockSummary {
	if s, ok := c.summaries[fi]; ok {
		return s
	}
	if depth <= 0 || c.inFlight[fi] {
		return nil
	}
	if c.inFlight == nil {
		c.inFlight = make(map[*FuncInfo]bool)
	}
	c.inFlight[fi] = true
	defer delete(c.inFlight, fi)

	pass := passFor(c.pass, fi.Pkg)
	var found *blockSummary
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			// Runs at another time or on another goroutine: its blocking
			// is not attributable to this call.
			return false
		case *ast.SendStmt:
			found = &blockSummary{op: "channel send", pos: n.Pos(), chain: []string{fi.Name()}}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = &blockSummary{op: "channel receive", pos: n.Pos(), chain: []string{fi.Name()}}
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				found = &blockSummary{op: "select without default", pos: n.Pos(), chain: []string{fi.Name()}}
			}
			return false // comm exprs of a defaulted select don't block
		case *ast.RangeStmt:
			if tv, ok := pass.Pkg.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = &blockSummary{op: "range over channel", pos: n.Pos(), chain: []string{fi.Name()}}
					return false
				}
			}
		case *ast.CallExpr:
			if desc, ok := directBlockingCall(pass, n); ok {
				found = &blockSummary{op: desc, pos: n.Pos(), chain: []string{fi.Name()}}
				return false
			}
			if callee := pass.Prog.Callee(pass.Pkg, n); callee != nil && callee != fi {
				if sub := c.summary(callee, depth-1); sub != nil {
					found = &blockSummary{
						op:    sub.op,
						pos:   sub.pos,
						chain: append([]string{fi.Name()}, sub.chain...),
					}
					return false
				}
			}
		}
		return true
	})
	c.summaries[fi] = found
	return found
}

// directBlockingCall classifies one call as a known blocking operation.
func directBlockingCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	// Package-level functions: time.Sleep and the io helpers.
	if pkgPath, ok := packageQualifier(pass, sel); ok {
		switch {
		case pkgPath == "time" && sel.Sel.Name == "Sleep":
			return "time.Sleep", true
		case pkgPath == "io" && ioBlockingFuncs[sel.Sel.Name]:
			return "io." + sel.Sel.Name, true
		}
		return "", false
	}
	recv := receiverTypeOf(pass, sel)
	if recv == nil {
		return "", false
	}
	if isNamedIn(recv, "sync", "WaitGroup") && sel.Sel.Name == "Wait" {
		return "sync.WaitGroup.Wait", true
	}
	switch pkgOf(recv) {
	case "net":
		if netBlockingMethods[sel.Sel.Name] {
			return types.TypeString(recv, qualifierShort) + "." + sel.Sel.Name + " on a net connection", true
		}
	case "io":
		if ioBlockingMethods[sel.Sel.Name] {
			return types.TypeString(recv, qualifierShort) + "." + sel.Sel.Name, true
		}
	case "os":
		if isNamedIn(recv, "os", "File") && osFileBlockingMethods[sel.Sel.Name] {
			return "os.File." + sel.Sel.Name, true
		}
	}
	return "", false
}

// netBlockingMethods are the net connection methods that can block.
var netBlockingMethods = map[string]bool{
	"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true,
	"ReadFromUDP": true, "WriteToUDP": true, "ReadMsgUDP": true,
	"WriteMsgUDP": true, "Accept": true, "AcceptTCP": true,
	// the allocation-free netip forms the live fabric uses
	"ReadFromUDPAddrPort": true, "WriteToUDPAddrPort": true,
	"ReadMsgUDPAddrPort": true, "WriteMsgUDPAddrPort": true,
}

// ioBlockingMethods are the io interface methods that can block (the
// wire codec writes frames through io.Writer).
var ioBlockingMethods = map[string]bool{
	"Read": true, "Write": true, "ReadByte": true, "WriteByte": true,
}

// osFileBlockingMethods are the os.File operations that hit the disk:
// an fsync can stall for seconds on a loaded device, so holding a mutex
// across one is a convoy unless it IS the durability contract
// (journal appends carry the audit directive for exactly that).
var osFileBlockingMethods = map[string]bool{
	"Sync": true, "Truncate": true,
}

// ioBlockingFuncs are io package helpers that loop over Read/Write.
var ioBlockingFuncs = map[string]bool{
	"ReadFull": true, "ReadAll": true, "Copy": true, "CopyN": true, "ReadAtLeast": true,
}

// mutexOp recognizes x.Lock / x.RLock / x.Unlock / x.RUnlock calls on
// sync mutexes and returns the lock's source expression and operation.
func (c *lockChecker) mutexOp(call *ast.CallExpr) (name, kind string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	recv := c.receiverType(sel)
	if recv == nil {
		return "", "", false
	}
	if !isNamedIn(recv, "sync", "Mutex") && !isNamedIn(recv, "sync", "RWMutex") {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// receiverType resolves the type of sel.X for a method selection, nil
// when type information is unavailable.
func (c *lockChecker) receiverType(sel *ast.SelectorExpr) types.Type {
	if s, ok := c.pass.Pkg.Info.Selections[sel]; ok {
		return deref(s.Recv())
	}
	if tv, ok := c.pass.Pkg.Info.Types[sel.X]; ok {
		return deref(tv.Type)
	}
	return nil
}

// deref unwraps pointers.
func deref(t types.Type) types.Type {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			return t
		}
		t = p.Elem()
	}
}

// isNamedIn reports whether t is the named type pkg.name.
func isNamedIn(t types.Type, pkg, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkg
}

// pkgOf returns the defining package path of a named type ("" for
// unnamed types).
func pkgOf(t types.Type) string {
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	if n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path()
}

// qualifierShort renders type names package-qualified without the full
// import path.
func qualifierShort(p *types.Package) string { return p.Name() }
