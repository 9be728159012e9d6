package deck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// parserKeyStrings extracts every string literal that appears in a case
// clause of the named functions in deck.go — i.e. the exact key and
// attribute vocabulary the parser accepts. Reading them from the AST
// (rather than maintaining a parallel list) means this test cannot drift
// from the code it checks.
func parserKeyStrings(t *testing.T, funcNames ...string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "deck.go", nil, 0)
	if err != nil {
		t.Fatalf("parsing deck.go: %v", err)
	}
	want := make(map[string]bool, len(funcNames))
	for _, n := range funcNames {
		want[n] = true
	}
	var keys []string
	seen := map[string]bool{}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || !want[fd.Name.Name] {
			continue
		}
		ast.Inspect(fd, func(n ast.Node) bool {
			cc, ok := n.(*ast.CaseClause)
			if !ok {
				return true
			}
			for _, e := range cc.List {
				lit, ok := e.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				s, err := strconv.Unquote(lit.Value)
				if err != nil || s == "" || seen[s] {
					continue
				}
				seen[s] = true
				keys = append(keys, s)
			}
			return true
		})
	}
	if len(keys) == 0 {
		t.Fatalf("no case-clause key strings found in %v — did the parser structure change?", funcNames)
	}
	return keys
}

// TestDeckFormatDocCoversAllKeys is the docs-freshness check: every deck
// key and state attribute the parser accepts must be mentioned in
// docs/deck-format.md, and every tl_* key it mentions must be accepted.
// Add the key to the reference table when extending the dialect, and
// drop it when removing one — CI runs this, so the documentation cannot
// silently rot.
func TestDeckFormatDocCoversAllKeys(t *testing.T) {
	doc, err := os.ReadFile("../../docs/deck-format.md")
	if err != nil {
		t.Fatalf("reading docs/deck-format.md: %v", err)
	}
	text := string(doc)
	keys := parserKeyStrings(t, "parseLine", "parseState")
	if len(keys) < 30 {
		t.Errorf("only %d parser keys found; the AST extraction looks broken", len(keys))
	}
	var missing []string
	for _, k := range keys {
		if !strings.Contains(text, k) {
			missing = append(missing, k)
		}
	}
	if len(missing) > 0 {
		t.Errorf("docs/deck-format.md does not mention the deck key(s) %q accepted by internal/deck; add them to the reference table", missing)
	}
	// The other direction: every tl_* key the reference names must be one
	// the parser accepts, so a deleted key cannot linger in the docs.
	accepted := map[string]bool{}
	for _, k := range keys {
		accepted[k] = true
	}
	for _, k := range regexp.MustCompile(`tl_[a-z0-9_]+`).FindAllString(text, -1) {
		if !accepted[k] {
			t.Errorf("docs/deck-format.md documents the deck key %q, which internal/deck rejects", k)
			accepted[k] = true // report each key once
		}
	}
}
