package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module under
// analysis.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Analyze marks packages matched by the requested patterns; packages
	// loaded only as dependencies keep it false.
	Analyze bool
}

// Load parses and type-checks the module rooted at root. Every package in
// the module is loaded (the module is small and intra-module imports need
// full type information); packages matching patterns are marked Analyze.
// extraDirs lists directories outside the normal package walk — fixture
// packages under testdata — to load and analyze as well.
//
// Patterns follow the go tool's shape relative to root: "./..." (whole
// module), "./internal/foo/..." (subtree), or "./internal/foo" (single
// package).
func Load(root string, patterns []string, extraDirs []string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	pkgs := make(map[string]*Package) // by import path
	addDir := func(dir, importPath string, analyze bool) error {
		files, err := parseDir(fset, dir)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		pkgs[importPath] = &Package{
			Path: importPath, Dir: dir, Fset: fset, Files: files, Analyze: analyze,
		}
		return nil
	}
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		if err := addDir(dir, importPath, matchPatterns(patterns, rel)); err != nil {
			return nil, err
		}
	}
	for _, dir := range extraDirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			rel = filepath.Base(abs)
		}
		if err := addDir(abs, modPath+"/"+filepath.ToSlash(rel), true); err != nil {
			return nil, err
		}
	}

	order, err := typeCheckOrder(pkgs)
	if err != nil {
		return nil, err
	}
	imp := &moduleImporter{
		std:     importer.ForCompiler(fset, "source", nil),
		checked: make(map[string]*types.Package),
	}
	var out []*Package
	for _, p := range order {
		var typeErrs []error
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { typeErrs = append(typeErrs, err) },
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		tpkg, _ := conf.Check(p.Path, fset, p.Files, info)
		if len(typeErrs) > 0 {
			return nil, fmt.Errorf("lint: type-checking %s: %v", p.Path, typeErrs[0])
		}
		p.Types = tpkg
		p.Info = info
		imp.checked[p.Path] = tpkg
		out = append(out, p)
	}
	return out, nil
}

// modulePath reads the module directive from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: reading go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// packageDirs walks the module tree collecting directories that hold Go
// files, skipping testdata, vendor, and hidden directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

// parseDir parses every non-test Go file of dir that the default build
// compiles — the files go build and go vet see without -race or other tags —
// with comments retained. Two files of one package that declare the same
// name under opposite build constraints cannot be type-checked together.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		} else if ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// matchPatterns reports whether the package at relative path rel matches
// any pattern.
func matchPatterns(patterns []string, rel string) bool {
	rel = filepath.ToSlash(rel)
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		if pat == "..." {
			return true
		}
		if sub, ok := strings.CutSuffix(pat, "/..."); ok {
			if rel == sub || strings.HasPrefix(rel, sub+"/") {
				return true
			}
			continue
		}
		if rel == pat || (pat == "" && rel == ".") {
			return true
		}
	}
	return false
}

// typeCheckOrder topologically sorts packages by their intra-module
// imports so dependencies are checked before dependents.
func typeCheckOrder(pkgs map[string]*Package) ([]*Package, error) {
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int)
	var order []*Package
	var visit func(path string) error
	visit = func(path string) error {
		p, ok := pkgs[path]
		if !ok {
			return nil // stdlib or external: the importer handles it
		}
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", path)
		}
		state[path] = visiting
		var imps []string
		for _, f := range p.Files {
			for _, spec := range f.Imports {
				imps = append(imps, strings.Trim(spec.Path.Value, `"`))
			}
		}
		sort.Strings(imps)
		for _, imp := range imps {
			if err := visit(imp); err != nil {
				return err
			}
		}
		state[path] = done
		order = append(order, p)
		return nil
	}
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter serves already-checked module packages and defers
// everything else (the standard library) to the source importer.
type moduleImporter struct {
	std     types.Importer
	checked map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}
