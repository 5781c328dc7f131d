package anlz

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CounterDiscipline enforces counter ownership: a metrics/stat counter —
// an exported integer field of another package's struct — may only be
// bumped (++, --, +=, -=, |=, &=, ^=) by its owning package, directly or
// through the owner's methods. Cross-package bumps bypass the owner's
// accounting discipline (epoch batching, atomic publication, histogram
// mirroring) and are how counters silently desynchronize from the state
// they describe.
//
// Plain assignment (`=`) from another package is allowed: snapshot
// restoration and test setup legitimately overwrite counters wholesale;
// it is the read-modify-write that must stay with the owner.
//
// Suppression: `//govisor:counterok(reason)` on the bump line.
var CounterDiscipline = &Analyzer{
	Name: "counterdiscipline",
	Doc:  "stat counters are bumped only by their owning package",
	Run:  runCounterDiscipline,
}

func runCounterDiscipline(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		info := pkg.Info
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				var target ast.Expr
				switch st := n.(type) {
				case *ast.IncDecStmt:
					target = st.X
				case *ast.AssignStmt:
					switch st.Tok {
					case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN,
						token.AND_ASSIGN, token.XOR_ASSIGN, token.SHL_ASSIGN,
						token.SHR_ASSIGN, token.AND_NOT_ASSIGN, token.QUO_ASSIGN,
						token.REM_ASSIGN, token.MUL_ASSIGN:
						if len(st.Lhs) == 1 {
							target = st.Lhs[0]
						}
					}
				}
				if target == nil {
					return true
				}
				sel, _ := baseSelector(target)
				if sel == nil {
					return true
				}
				field := fieldOf(info, sel)
				if field == nil || !field.Exported() || field.Pkg() == nil {
					return true
				}
				if field.Pkg() == pkg.Types {
					return true // owner bumps its own counters freely
				}
				if b, ok := field.Type().Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
					return true
				}
				if _, ok := pkg.directiveAt(pass.Fset, n.Pos(), "counterok"); ok {
					return true
				}
				pass.Reportf(n.Pos(),
					"counter %s.%s is owned by package %s but bumped here in %s; route the bump through the owner, or annotate //govisor:counterok(reason)",
					field.Pkg().Name(), field.Name(), field.Pkg().Name(), pkg.Name)
				return true
			})
		}
	}
	return nil
}
