//go:build linux

package lbproxy

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// loopFiles hold the code that runs on an event loop: the poller, the raw
// syscall layer itself, and the relay with its splice pipes and TCP_INFO
// sampler.
var loopFiles = []string{
	"../netpoll/poller_linux.go",
	"../netpoll/rawsys/rawsys_linux.go",
	"netpoll_linux.go",
	"splice_linux.go",
	"tcpinfo_linux.go",
}

// schedulerSyscalls are the package syscall functions that enter the
// scheduler (entersyscall/exitsyscall) and have a raw counterpart the loop
// uses instead; names ending in "*" match as prefixes.
var schedulerSyscalls = []string{
	"Syscall", "Syscall6", "Read", "Write", "Splice", "Accept4", "Connect",
	"Socket", "Setsockopt*", "Getsockopt*", "Getsockname", "Shutdown",
	"Close", "EpollWait", "EpollCtl", "Pipe2",
}

// offLoopCallers are the functions, by file, that may still make those
// calls because they never run on a loop.
var offLoopCallers = map[string][]string{
	// The epoll fd and the wake pipe, before the loop goroutine starts.
	"../netpoll/poller_linux.go": {"New"},
}

// TestEventLoopSyscallsStayRaw: no code that runs on an event loop calls a
// package syscall wrapper that enters the scheduler. One such call on an
// idle P wakes sysmon, and one it outlasts hands the P to another thread:
// context switches and CPU on every request (DESIGN §12). rawsys makes the
// same kernel calls raw.
func TestEventLoopSyscallsStayRaw(t *testing.T) {
	for _, file := range loopFiles {
		calls, err := schedulerSyscallSites(file)
		if err != nil {
			t.Fatal(err)
		}
		allowed := map[string]bool{}
		for _, fn := range offLoopCallers[file] {
			allowed[fn] = false
		}
		for _, c := range calls {
			if _, ok := allowed[c.fn]; ok {
				allowed[c.fn] = true
				continue
			}
			t.Errorf("%s: syscall.%s in %s enters the scheduler; make it through rawsys", c.pos, c.name, c.fn)
		}
		for fn, used := range allowed {
			if !used {
				t.Errorf("%s: %s is listed as an off-loop caller but makes no such call; drop it from the list", file, fn)
			}
		}
	}
}

type syscallSite struct {
	pos      token.Position
	name, fn string // the syscall function and the enclosing declaration
}

// schedulerSyscallSites parses file and returns its calls to
// schedulerSyscalls, in source order.
func schedulerSyscallSites(file string) ([]syscallSite, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, 0)
	if err != nil {
		return nil, err
	}
	pkg := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "syscall" {
			pkg = "syscall"
			if imp.Name != nil {
				pkg = imp.Name.Name
			}
		}
	}
	if pkg == "" {
		return nil, nil
	}
	var sites []syscallSite
	for _, decl := range f.Decls {
		fn := declName(decl)
		ast.Inspect(decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg && entersScheduler(sel.Sel.Name) {
				sites = append(sites, syscallSite{fset.Position(call.Pos()), sel.Sel.Name, fn})
			}
			return true
		})
	}
	return sites, nil
}

func entersScheduler(name string) bool {
	for _, s := range schedulerSyscalls {
		if prefix, ok := strings.CutSuffix(s, "*"); ok && strings.HasPrefix(name, prefix) || name == s {
			return true
		}
	}
	return false
}

// declName is a declaration's name as the gate reports it: "F",
// "Recv.Method", or the first name a var block declares (a func literal in
// a package variable, such as a sync.Pool's New).
func declName(decl ast.Decl) string {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil || len(d.Recv.List) == 0 {
			return d.Name.Name
		}
		recv := d.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			return id.Name + "." + d.Name.Name
		}
		return d.Name.Name
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Names) > 0 {
				return vs.Names[0].Name
			}
		}
	}
	return "?"
}
