package perf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// knobs pins the number of exported fields of every exported struct named
// *Config, Options or PolicySpec in the non-test Go files outside
// benchmark/, keyed by package directory and type. Each field is a knob a
// caller can set, and each knob multiplies the configurations tests and
// benchmarks must cover. A change that adds one edits this table in the
// same diff, where review sees it; a change that removes one lowers it.
var knobs = map[string]int{
	"internal/auditlog.LogConfig":             3,
	"internal/control.ControllerConfig":       5,
	"internal/control.DetectorConfig":         13,
	"internal/control.LatencyAwareConfig":     8,
	"internal/control.PolicySpec":             8,
	"internal/core.EnsembleConfig":            2,
	"internal/core.FlowTableConfig":           3,
	"internal/core.ServerLatencyConfig":       3,
	"internal/experiments.ArenaConfig":        4,
	"internal/experiments.CongestionConfig":   2,
	"internal/experiments.DSTConfig":          1,
	"internal/experiments.Fig2Config":         5,
	"internal/experiments.Fig3Config":         4,
	"internal/experiments.Options":            6,
	"internal/experiments.OutageConfig":       3,
	"internal/lb.Config":                      5,
	"internal/lbproxy.Config":                 14,
	"internal/lbproxy/dialpool.Config":        5,
	"internal/packet.CongestionTrackerConfig": 2,
	"internal/server.Config":                  11,
	"internal/server.DependencyConfig":        4,
	"internal/tcpsim.AckSinkConfig":           2,
	"internal/tcpsim.BulkConfig":              10,
	"internal/tcpsim.RequestConfig":           16,
	"internal/testbed.ClusterConfig":          15,
	"internal/testbed.PathConfig":             10,
	"internal/workload.Config":                12,
}

// knobTotal is the sum of the knobs table.
const knobTotal = 176

// TestConfigKnobRatchet: the exported Config fields in the tree are
// exactly the knobs table.
func TestConfigKnobRatchet(t *testing.T) {
	got, err := configKnobs("../..")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for name, n := range knobs {
		total += n
		if _, ok := got[name]; !ok {
			t.Errorf("%s is in the knobs table but not in the tree; drop it from the table", name)
		}
	}
	if total != knobTotal {
		t.Errorf("the knobs table sums to %d, knobTotal says %d", total, knobTotal)
	}
	for name, n := range got {
		if want, ok := knobs[name]; !ok {
			t.Errorf("%s has %d exported fields and no entry in the knobs table", name, n)
		} else if n != want {
			t.Errorf("%s has %d exported fields, the knobs table pins %d", name, n, want)
		}
	}
}

// configKnobs counts the exported named fields of each exported *Config,
// Options and PolicySpec struct declared in a non-test Go file under root,
// benchmark/ and testdata excepted.
func configKnobs(root string) (map[string]int, error) {
	out := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "benchmark" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				if !ok || !ts.Name.IsExported() || !strings.HasSuffix(name, "Config") && name != "Options" && name != "PolicySpec" {
					continue
				}
				n := 0
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						if id.IsExported() {
							n++
						}
					}
				}
				out[filepath.ToSlash(dir)+"."+name] += n
			}
		}
		return nil
	})
	return out, err
}
