package tier_test

// Flags cannot drift: the docs may only attribute to a serving binary
// flags that binary defines, and the shared flag group reads the same
// (name, usage, default) on every binary that mounts it. The binaries
// are built and asked for -h, so the test sees exactly what an
// operator sees.

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/tier"
)

var servingBinaries = []string{"ivrserve", "ivrroute", "ivrsegment"}

var (
	helpFlagLine = regexp.MustCompile(`^  -([a-z0-9-]+)( \S+)?$`)
	defaultNote  = regexp.MustCompile(` \(default [^)]*\)$`)
	toolName     = regexp.MustCompile(`\bivr[a-z]+\b`)
	docFlag      = regexp.MustCompile("(?:^|[\\s`(])(-[a-z][a-z0-9-]*)")
	allThreeTake = regexp.MustCompile("All three binaries take `(-[a-z][a-z0-9-]*)")
)

// parseHelp maps each flag of a flag.PrintDefaults rendering to its
// usage text (which carries the default).
func parseHelp(out []byte) map[string]string {
	flags := map[string]string{}
	name := ""
	for _, line := range strings.Split(string(out), "\n") {
		if m := helpFlagLine.FindStringSubmatch(line); m != nil {
			name = m[1]
			flags[name] = ""
		} else if name != "" && strings.HasPrefix(line, "    \t") {
			flags[name] += strings.TrimPrefix(line, "    \t")
		}
	}
	return flags
}

// binaryHelp builds cmd/<bin> and returns its parsed -h output.
func binaryHelp(t *testing.T, dir, bin string) map[string]string {
	t.Helper()
	exe := filepath.Join(dir, bin)
	if out, err := exec.Command("go", "build", "-o", exe, "repro/cmd/"+bin).CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", bin, err, out)
	}
	out, _ := exec.Command(exe, "-h").CombinedOutput() // -h exits 0 or 2 by Go version
	flags := parseHelp(out)
	if len(flags) == 0 {
		t.Fatalf("%s -h printed no flags:\n%s", bin, out)
	}
	return flags
}

// docFlags collects, per serving binary, every -flag the document
// shows on that binary's command line: the flags between the binary's
// name and the next tool name, following shell line continuations.
func docFlags(t *testing.T, path string) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	attributed := map[string][]string{}
	owner := "" // binary whose command line a continuation line extends
	for _, line := range strings.Split(string(data), "\n") {
		if m := allThreeTake.FindStringSubmatch(line); m != nil {
			for _, bin := range servingBinaries {
				attributed[bin] = append(attributed[bin], m[1])
			}
		}
		names := toolName.FindAllStringIndex(line, -1)
		for i := -1; i < len(names); i++ {
			start, end := 0, len(line)
			if i >= 0 {
				owner = line[names[i][0]:names[i][1]]
				start = names[i][1]
			}
			if i+1 < len(names) {
				end = names[i+1][0]
			}
			for _, m := range docFlag.FindAllStringSubmatch(line[start:end], -1) {
				if owner != "" {
					attributed[owner] = append(attributed[owner], m[1])
				}
			}
		}
		if !strings.HasSuffix(strings.TrimSpace(line), `\`) {
			owner = ""
		}
	}
	return attributed
}

func TestFlagsMatchDocsAndEachOther(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the three serving binaries")
	}
	dir := t.TempDir()
	help := map[string]map[string]string{}
	for _, bin := range servingBinaries {
		help[bin] = binaryHelp(t, dir, bin)
	}

	for _, doc := range []string{"LOADTEST.md", "OBSERVABILITY.md"} {
		attributed := docFlags(t, filepath.Join("..", "..", doc))
		seen := 0
		for _, bin := range servingBinaries {
			for _, name := range attributed[bin] {
				seen++
				if _, ok := help[bin][strings.TrimPrefix(name, "-")]; !ok {
					t.Errorf("%s shows %s %s, which %s does not define", doc, bin, name, bin)
				}
			}
		}
		if seen == 0 {
			t.Errorf("%s attributes no flags to any serving binary — has the parser lost the docs' format?", doc)
		}
	}

	// The reference rendering of the shared group, straight from the
	// one helper that registers it.
	render := func(register func(*flag.FlagSet)) map[string]string {
		fs := flag.NewFlagSet("ref", flag.ContinueOnError)
		var buf bytes.Buffer
		fs.SetOutput(&buf)
		register(fs)
		fs.PrintDefaults()
		return parseHelp(buf.Bytes())
	}
	common := render(func(fs *flag.FlagSet) { tier.RegisterFlags(fs, ":0") })
	admission := render(func(fs *flag.FlagSet) { new(tier.Flags).RegisterAdmission(fs) })
	if len(common) != 4 || len(admission) != 3 {
		t.Fatalf("shared group is %d + %d flags, want 4 + 3", len(common), len(admission))
	}
	mounts := map[string][]map[string]string{
		"ivrserve":   {common, admission},
		"ivrroute":   {common},
		"ivrsegment": {common, admission},
	}
	wantAddr := map[string]string{"ivrserve": ":8080", "ivrroute": ":8080", "ivrsegment": ":8091"}
	for bin, groups := range mounts {
		for _, group := range groups {
			for name, want := range group {
				got, ok := help[bin][name]
				if !ok {
					t.Errorf("%s does not mount -%s", bin, name)
					continue
				}
				if name == "addr" {
					// The listen default is the one per-binary parameter.
					if !strings.HasSuffix(got, `(default "`+wantAddr[bin]+`")`) {
						t.Errorf("%s -addr: %q, want default %s", bin, got, wantAddr[bin])
					}
					got, want = defaultNote.ReplaceAllString(got, ""), defaultNote.ReplaceAllString(want, "")
				}
				if got != want {
					t.Errorf("%s -%s reads %q, the shared group says %q", bin, name, got, want)
				}
			}
		}
	}
	for name := range admission {
		if _, ok := help["ivrroute"][name]; ok {
			t.Errorf("ivrroute grew -%s; the router has no admission gate", name)
		}
	}
}
