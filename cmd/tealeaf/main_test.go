package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// docFlagNames returns the flag names the `tealeaf` flag table in
// docs/deck-format.md documents (without the dash). A combined row such
// as `-px/-py/-pz N` names each of its flags.
func docFlagNames(t *testing.T) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile("../../docs/deck-format.md")
	if err != nil {
		t.Fatalf("reading docs/deck-format.md: %v", err)
	}
	_, section, ok := strings.Cut(string(doc), "## `tealeaf` flags")
	if !ok {
		t.Fatal("docs/deck-format.md has no `tealeaf` flags section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	names := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(-[^` ]+)[ `]").FindAllStringSubmatch(section, -1) {
		for _, f := range strings.Split(m[1], "/") {
			names[strings.TrimPrefix(f, "-")] = true
		}
	}
	return names
}

// TestFlagTableDocumented is the docs-freshness check for the tealeaf
// flags: docs/deck-format.md's table must document exactly the flags
// tealeaf registers on flag.CommandLine.
func TestFlagTableDocumented(t *testing.T) {
	documented := docFlagNames(t)
	if len(documented) < 20 {
		t.Fatalf("only %d documented flags found; the table parse looks broken", len(documented))
	}
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return // registered by the testing package, not by tealeaf
		}
		if !documented[f.Name] {
			t.Errorf("docs/deck-format.md has no row for flag -%s", f.Name)
		}
		delete(documented, f.Name)
	})
	for name := range documented {
		t.Errorf("docs/deck-format.md documents flag -%s, which tealeaf does not declare", name)
	}
}
