package anlz

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// PairParity keeps fast paths and their reference arms in lockstep: a
// function annotated `//govisor:pair <refName>` (the fast path) must mutate
// the same set of integer state fields — cycle counters, instret, CSRs,
// stat counters — as its reference arm <refName> in the same package. The
// differential tests prove the pair byte-identical on the inputs they
// generate; this check proves structurally that neither arm can grow a
// counter bump the other lacks, which is exactly how arms drift when a
// later PR touches only one of them.
//
// Write-sets are transitive over same-package static callees (the memoized
// fast path and the reference arm typically share helpers like vmExit) and
// filtered to integer-typed fields, including integer arrays (register
// files) — struct- and slice-typed fields are bookkeeping whose equality is
// the differential tests' job, not a counter contract.
//
// Publication slots are left out too: a field that every access in the
// program stores with atomic.Store* or loads with atomic.Load* — a memo
// entry's tag, epoch and armed flag, published for observers on other
// goroutines — records where a cached verdict lives, not how much work was
// done, so a fast arm that fills a memo its reference arm never touches has
// not drifted. One atomic Add, Swap or CompareAndSwap, or one plain access,
// anywhere makes the field a counter again.
var PairParity = &Analyzer{
	Name: "pairparity",
	Doc:  "//govisor:pair fast-path/reference arms must mutate the same integer state fields",
	Run:  runPairParity,
}

func runPairParity(pass *Pass) error {
	published := publicationSlots(pass)
	for _, pkg := range pass.Pkgs {
		decls := map[string]*ast.FuncDecl{}
		var names []string
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					key := funcDeclKey(fd)
					decls[key] = fd
					names = append(names, key)
				}
			}
		}
		sort.Strings(names)

		memo := map[*ast.FuncDecl]map[*types.Var]bool{}
		for _, name := range names {
			fd := decls[name]
			dir, ok := pkg.funcDirective(fd, "pair")
			if !ok {
				continue
			}
			refName := dir.Arg
			ref := findPairTarget(decls, fd, refName)
			if ref == nil {
				pass.Reportf(fd.Pos(), "pair reference %q for %s not found in package %s", refName, name, pkg.Name)
				continue
			}
			fastW := writeSet(pkg, fd, decls, published, memo, nil)
			refW := writeSet(pkg, ref, decls, published, memo, nil)
			var missing, extra []string
			for v := range refW {
				if !fastW[v] {
					missing = append(missing, fieldDisplay(v))
				}
			}
			for v := range fastW {
				if !refW[v] {
					extra = append(extra, fieldDisplay(v))
				}
			}
			sort.Strings(missing)
			sort.Strings(extra)
			if len(missing) > 0 {
				pass.Reportf(fd.Pos(),
					"fast path %s does not mutate %s, but its reference arm %s does; the arms have drifted",
					name, strings.Join(missing, ", "), refName)
			}
			if len(extra) > 0 {
				pass.Reportf(fd.Pos(),
					"fast path %s mutates %s, but its reference arm %s does not; the arms have drifted",
					name, strings.Join(extra, ", "), refName)
			}
		}
	}
	return nil
}

// funcDeclKey names a declaration within its package: Func or Type.Method.
func funcDeclKey(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}

// findPairTarget resolves a pair reference name: either a bare function/
// method name (matched on the same receiver type first, then any), or a
// Type.Method key.
func findPairTarget(decls map[string]*ast.FuncDecl, from *ast.FuncDecl, refName string) *ast.FuncDecl {
	if fd, ok := decls[refName]; ok {
		return fd
	}
	// Bare method name: prefer the fast path's own receiver type.
	if from.Recv != nil {
		key := funcDeclKey(from)
		if i := strings.LastIndex(key, "."); i >= 0 {
			if fd, ok := decls[key[:i]+"."+refName]; ok {
				return fd
			}
		}
	}
	var found *ast.FuncDecl
	for key, fd := range decls {
		if key == refName || strings.HasSuffix(key, "."+refName) {
			if found != nil && found != fd {
				return nil // ambiguous
			}
			found = fd
		}
	}
	return found
}

// publicationSlots returns the fields every access of which, program-wide,
// is the &x.f operand of an atomic Load* or Store* call. One pre-order walk
// suffices: a call is visited before the selector inside its argument.
func publicationSlots(pass *Pass) map[*types.Var]bool {
	sanctioned := map[*ast.SelectorExpr]bool{}
	slot, plain := map[*types.Var]bool{}, map[*types.Var]bool{}
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if !isAtomicCall(pkg.Info, n) || len(n.Args) == 0 {
						break
					}
					name := funcObj(pkg.Info, n).Name()
					u, ok := ast.Unparen(n.Args[0]).(*ast.UnaryExpr)
					if ok && u.Op == token.AND && (strings.HasPrefix(name, "Load") || strings.HasPrefix(name, "Store")) {
						if sel, indexed := baseSelector(u.X); sel != nil && !indexed {
							sanctioned[sel] = true
						}
					}
				case *ast.SelectorExpr:
					if v := fieldOf(pkg.Info, n); v != nil {
						if sanctioned[n] {
							slot[v] = true
						} else {
							plain[v] = true
						}
					}
				}
				return true
			})
		}
	}
	for v := range plain {
		delete(slot, v)
	}
	return slot
}

// writeSet computes the set of integer-typed struct fields a function
// mutates, transitively through same-package static callees, leaving out
// the publication slots. memo caches completed sets; path guards against
// recursion (a cycle contributes the fields found so far).
func writeSet(pkg *Package, fd *ast.FuncDecl, decls map[string]*ast.FuncDecl, published map[*types.Var]bool, memo map[*ast.FuncDecl]map[*types.Var]bool, path map[*ast.FuncDecl]bool) map[*types.Var]bool {
	if set, ok := memo[fd]; ok {
		return set
	}
	if path == nil {
		path = map[*ast.FuncDecl]bool{}
	}
	if path[fd] {
		return nil
	}
	path[fd] = true
	defer delete(path, fd)

	set := map[*types.Var]bool{}
	addTarget := func(expr ast.Expr) {
		sel, _ := baseSelector(expr)
		if sel == nil {
			return
		}
		if v := fieldOf(pkg.Info, sel); v != nil && isCounterLike(v.Type()) && !published[v] {
			set[v] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				addTarget(lhs)
			}
		case *ast.IncDecStmt:
			addTarget(st.X)
		case *ast.CallExpr:
			// Atomic mutations count as writes too (&s.f first arg). Pure
			// observations (atomic.Load*) are not mutations: a fast path
			// validating against an epoch counter does not thereby write it.
			if isAtomicCall(pkg.Info, st) && len(st.Args) > 0 {
				if fn := funcObj(pkg.Info, st); fn != nil && !strings.HasPrefix(fn.Name(), "Load") {
					if u, ok := ast.Unparen(st.Args[0]).(*ast.UnaryExpr); ok && u.Op == token.AND {
						addTarget(u.X)
					}
				}
				return true
			}
			// Same-package static callee: fold in its write-set.
			if callee := funcObj(pkg.Info, st); callee != nil && callee.Pkg() == pkg.Types {
				if calleeDecl := declOf(decls, callee); calleeDecl != nil && calleeDecl != fd {
					for v := range writeSet(pkg, calleeDecl, decls, published, memo, path) {
						set[v] = true
					}
				}
			}
		}
		return true
	})
	memo[fd] = set
	return set
}

// declOf finds the declaration of a *types.Func among the package decls.
func declOf(decls map[string]*ast.FuncDecl, fn *types.Func) *ast.FuncDecl {
	sig := fn.Type().(*types.Signature)
	key := fn.Name()
	if sig.Recv() != nil {
		if n := recvName(sig.Recv().Type()); n != "" {
			key = n + "." + fn.Name()
		}
	}
	return decls[key]
}

// isCounterLike reports integer-valued state: plain integers and integer
// arrays (register files, counter banks).
func isCounterLike(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsInteger != 0
	case *types.Array:
		if b, ok := u.Elem().Underlying().(*types.Basic); ok {
			return b.Info()&types.IsInteger != 0
		}
	}
	return false
}
