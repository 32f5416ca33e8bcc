package netdpsyn_test

import (
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// interfaceMethods are method names that standard interfaces call
// (fmt calls String, errors.Is calls Unwrap, net/http calls
// ServeHTTP, ...), so their callers never spell the method's name.
var interfaceMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// ownTestsOnly are the exported declarations under internal/ that only
// their own package's tests call and that stay on purpose, keyed by
// package, receiver type (for a method) and name; the value says why.
// Four are oracles, the reference a live function is checked against.
var ownTestsOnly = map[string]string{
	"dataset.FormatIP":             "the oracle of dataset.AppendIP",
	"anonymize.PrefixPreserved":    "the oracle of anonymize.CryptoPAn.Anonymize",
	"marginal.MaxAbsProjectionGap": "the oracle of marginal.ConsistAttributes",
	"trace.TableToFlows":           "the oracle of trace.FlowsToTable",
	"experiments.Grid.Row":         "Grid's row accessor, the twin of Col",
}

// TestNoUnusedInternalFuncs fails when an exported function or method
// declared in a non-test file under internal/ has no caller. A name
// counts as used when it occurs in a non-test file outside its
// declaration, or in a test file of another directory; comments do
// not count, and bench/e2e and examples/ are callers like any other
// code. The match is by name, so a dead function that shares its
// name with a live identifier passes: the check catches what nothing
// mentions at all.
func TestNoUnusedInternalFuncs(t *testing.T) {
	type decl struct {
		name string // the bare name, which uses are matched by
		key  string // package.[Receiver.]name, which ownTestsOnly is keyed by
		pos  token.Position
	}
	var decls []decl
	declared := map[string]int{}             // name → func/method declarations in non-test files
	prodUses := map[string]int{}             // identifier → occurrences in non-test files
	testUses := map[string]map[string]bool{} // identifier → directories whose test files use it
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		isTest := strings.HasSuffix(path, "_test.go")
		dir := filepath.Dir(path)
		collect := !isTest && strings.HasPrefix(path, "internal/")

		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, func(pos token.Position, msg string) {
			t.Errorf("%s: %s", pos, msg)
		}, 0)
		// A top-level declaration is a func keyword outside every
		// bracket, right after a (possibly implicit) semicolon. Its
		// name is the next identifier, or the first one after the
		// receiver's closing parenthesis; the receiver's type is the
		// last identifier inside that parenthesis but outside any
		// type-parameter brackets.
		const (
			body = iota
			afterFunc
			inRecv
			afterRecv
		)
		state, depth, prev, recv := body, 0, token.SEMICOLON, ""
		for {
			pos, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			switch tok {
			case token.IDENT:
				if isTest {
					if testUses[lit] == nil {
						testUses[lit] = map[string]bool{}
					}
					testUses[lit][dir] = true
				} else {
					prodUses[lit]++
				}
				if state == afterFunc || state == afterRecv {
					if !isTest {
						declared[lit]++
					}
					method := state == afterRecv
					if collect && token.IsExported(lit) && !(method && interfaceMethods[lit]) {
						key := filepath.Base(dir) + "."
						if method {
							key += recv + "."
						}
						decls = append(decls, decl{lit, key + lit, fset.Position(pos)})
					}
					state = body
				} else if state == inRecv && depth == 1 {
					recv = lit
				}
			case token.FUNC:
				if depth == 0 && prev == token.SEMICOLON {
					state, recv = afterFunc, ""
				}
			case token.LPAREN, token.LBRACE, token.LBRACK:
				if state == afterFunc && tok == token.LPAREN {
					state = inRecv
				}
				depth++
			case token.RPAREN, token.RBRACE, token.RBRACK:
				depth--
				if state == inRecv && depth == 0 {
					state = afterRecv
				}
			}
			prev = tok
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	used := func(d decl) bool {
		if prodUses[d.name] > declared[d.name] {
			return true
		}
		for dir := range testUses[d.name] {
			if dir != filepath.Dir(d.pos.Filename) {
				return true
			}
		}
		return false
	}
	var dead []string
	kept := map[string]bool{}
	for _, d := range decls {
		if used(d) {
			continue
		}
		if _, ok := ownTestsOnly[d.key]; ok {
			kept[d.key] = true
			continue
		}
		dead = append(dead, d.pos.String()+": "+d.key)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside its own package's tests: delete it, or move it into the test that uses it", d)
	}
	for key, why := range ownTestsOnly {
		if !kept[key] {
			t.Errorf("%s (%s) is no longer an unused declaration under internal/: drop it from ownTestsOnly", key, why)
		}
	}
}
