package analyzers

import (
	"go/token"
	"go/types"
	"strings"
)

// This file is the whole-surface scope: checks that see every loaded
// package at once, plus the call graph over them. They run once over
// the surface rather than per file, because their properties (context
// flow, lock-held blocking, determinism taint) only exist across
// function boundaries.

// InterContext is the whole-surface analysis state handed to each
// OnSurface check.
type InterContext struct {
	Pkgs  []*TypedPackage
	Graph *CallGraph

	files map[string]bool // diagnostic paths of the surface
	fset  *token.FileSet
}

// newInterContext builds the call graph and indexes the loaded surface.
func newInterContext(pkgs []*TypedPackage) *InterContext {
	ic := &InterContext{
		Pkgs:  pkgs,
		Graph: BuildCallGraph(pkgs),
		files: map[string]bool{},
	}
	for _, p := range pkgs {
		ic.fset = p.Fset
		for _, f := range p.Files {
			ic.files[f.Path] = true
		}
	}
	return ic
}

// onSurface reports whether a position lies in one of the loaded
// (pattern-matched) files — checks use it to keep findings off
// dependency packages pulled in only through imports.
func (ic *InterContext) onSurface(pos token.Pos) bool {
	return ic.files[ic.fset.Position(pos).Filename]
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isHTTPRequestPtr reports whether t is *net/http.Request.
func isHTTPRequestPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request"
}

// signatureOf returns a node's signature (nil for literals without type
// info or unresolved externals).
func signatureOf(n *CallNode) *types.Signature {
	if n.Obj != nil {
		sig, _ := n.Obj.Type().(*types.Signature)
		return sig
	}
	if n.Lit != nil && n.File != nil {
		if tv, ok := n.File.Package.Info.Types[n.Lit]; ok {
			sig, _ := tv.Type.(*types.Signature)
			return sig
		}
	}
	return nil
}

// ctxParams returns the names of a node's context.Context parameters
// and *http.Request parameters (whose Context() method carries the
// request context). Empty when the node carries no context.
func ctxParams(n *CallNode) (ctxNames, reqNames []string) {
	sig := signatureOf(n)
	if sig == nil {
		return nil, nil
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		p := params.At(i)
		switch {
		case isContextType(p.Type()):
			ctxNames = append(ctxNames, p.Name())
		case isHTTPRequestPtr(p.Type()):
			reqNames = append(reqNames, p.Name())
		}
	}
	return ctxNames, reqNames
}

// carriesContext reports whether the node receives a context — a
// context.Context parameter or an *http.Request (HTTP handler shape).
func carriesContext(n *CallNode) bool {
	ctx, req := ctxParams(n)
	return len(ctx) > 0 || len(req) > 0
}

// shortName compresses a FullName for messages: "repro/internal/serve"
// becomes "serve".
func shortName(full string) string {
	if i := strings.LastIndex(full, "/"); i >= 0 {
		return full[i+1:]
	}
	return full
}
