package oscachesim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"oscachesim/internal/core"
	"oscachesim/internal/workload"
)

// TestDocsCommandsDrift checks every `go run ./cmd/<x> …` command in
// the user-facing documents against the code: each -flag must be one
// that cmd/<x>/main.go defines (read statically from its source), and
// each workload or system value must parse. A renamed flag or a
// misspelled system name in a documented command fails here instead of
// in a reader's shell.
func TestDocsCommandsDrift(t *testing.T) {
	cmd := regexp.MustCompile(`go run \./cmd/([a-z]+)`)
	flags := map[string]map[string]bool{}
	checked := 0
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "TESTING.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		for n := 0; n < len(lines); n++ {
			line, where := lines[n], doc+":"+strconv.Itoa(n+1)
			// A shell line continuation joins a command's lines into one.
			for strings.HasSuffix(line, "\\") && n+1 < len(lines) {
				n++
				line = strings.TrimSuffix(line, "\\") + " " + lines[n]
			}
			for _, m := range cmd.FindAllStringSubmatchIndex(line, -1) {
				name := line[m[2]:m[3]]
				if flags[name] == nil {
					flags[name] = mainFlags(t, name)
				}
				args := line[m[1]:]
				if i := strings.IndexAny(args, "`#|;&"); i >= 0 {
					args = args[:i]
				}
				checkArgs(t, where+": cmd/"+name, flags[name], strings.Fields(args))
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no documented go run commands found")
	}
}

// checkArgs checks one documented command's arguments.
func checkArgs(t *testing.T, where string, defined map[string]bool, args []string) {
	t.Helper()
	for i, arg := range args {
		if len(arg) < 2 || arg[0] != '-' || (arg[1] >= '0' && arg[1] <= '9') {
			continue // a value, not a flag
		}
		name, value, inline := strings.Cut(strings.TrimLeft(arg, "-"), "=")
		if !defined[name] {
			t.Errorf("%s: flag -%s is not defined", where, name)
			continue
		}
		if !inline && i+1 < len(args) {
			value = args[i+1]
		}
		for _, v := range strings.Split(value, ",") {
			var err error
			switch name {
			case "workload", "workloads":
				_, err = workload.ParseName(v)
			case "system", "systems":
				_, err = core.ParseSystem(v)
			}
			if err != nil {
				t.Errorf("%s: -%s %s: %v", where, name, value, err)
			}
		}
	}
}

// mainFlags returns the flag names cmd/<name>/main.go defines, read
// from its syntax tree: the name argument of every flag.String,
// fs.IntVar, … call.
func mainFlags(t *testing.T, name string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", name, "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	definers := regexp.MustCompile(`^(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Text|)(Var|Func)?$`)
	defined := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !definers.MatchString(sel.Sel.Name) {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					defined[s] = true
				}
				break
			}
		}
		return true
	})
	if len(defined) == 0 {
		t.Fatalf("cmd/%s/main.go defines no flags", name)
	}
	return defined
}
