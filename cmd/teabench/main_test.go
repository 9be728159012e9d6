package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// docFlagRows returns the rows of the `teabench` flag table in
// docs/deck-format.md, keyed by flag name (without the dash).
func docFlagRows(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile("../../docs/deck-format.md")
	if err != nil {
		t.Fatalf("reading docs/deck-format.md: %v", err)
	}
	_, section, ok := strings.Cut(string(doc), "## `teabench` flags")
	if !ok {
		t.Fatal("docs/deck-format.md has no `teabench` flags section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]string{}
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z0-9]+)[ `].*$").FindAllStringSubmatch(section, -1) {
		rows[m[1]] = m[0]
	}
	return rows
}

// TestExperimentNamesDocumented is the docs-freshness check for -exp:
// the usage text and docs/deck-format.md's flag table must name exactly
// the experiments the registry holds, and the table exactly the flags
// the flag set declares.
func TestExperimentNamesDocumented(t *testing.T) {
	fs, _ := newFlagSet()
	rows := docFlagRows(t)

	usage := strings.Split(strings.TrimPrefix(fs.Lookup("exp").Usage, "experiment: "), "|")
	cells := strings.Split(rows["exp"], "|")
	if len(cells) < 4 {
		t.Fatalf("no `-exp` row in the teabench flag table")
	}
	var documented []string
	for _, m := range regexp.MustCompile("`([a-z0-9]+)`").FindAllStringSubmatch(cells[3], -1) {
		documented = append(documented, m[1])
	}
	for where, names := range map[string][]string{"-exp usage": usage, "docs/deck-format.md": documented} {
		seen := map[string]bool{}
		for _, name := range names {
			seen[name] = true
			if _, ok := experiments[name]; !ok && name != "all" {
				t.Errorf("%s names %q, which is not in the registry", where, name)
			}
		}
		for name := range experiments {
			if !seen[name] {
				t.Errorf("%s does not name experiment %q", where, name)
			}
		}
		if !seen["all"] {
			t.Errorf("%s does not name \"all\"", where)
		}
	}

	fs.VisitAll(func(f *flag.Flag) {
		if _, ok := rows[f.Name]; !ok {
			t.Errorf("docs/deck-format.md has no row for flag -%s", f.Name)
		}
		delete(rows, f.Name)
	})
	for name := range rows {
		t.Errorf("docs/deck-format.md documents flag -%s, which teabench does not declare", name)
	}

	for _, name := range paperExperiments {
		if _, ok := experiments[name]; !ok {
			t.Errorf("-exp all runs %q, which is not in the registry", name)
		}
	}
}

func TestRunSmoke(t *testing.T) {
	if err := run([]string{"-exp", "smoke"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperimentListsNames(t *testing.T) {
	err := run([]string{"-exp", "nosuch"})
	if err == nil {
		t.Fatal("-exp nosuch: want an error")
	}
	for name := range experiments {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list experiment %q", err, name)
		}
	}
}
