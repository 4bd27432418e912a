//go:build linux

package lbproxy

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
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
	// The dial pool, built before any loop starts.
	"netpoll_linux.go": {"Proxy.initDataplane"},
}

// pooledPathCallers are the known exception: with PoolIdle > 0 these run
// on a loop and still enter the scheduler, because the dial pool holds
// net.Conns. checkout's Get probes with a read through RawConn.Read and
// then closes the pool's conn; recycleServer wraps the socket through
// fdConn (os.NewFile, net.FileConn) for Put, which may close it; poolSweep
// closes aged conns. They go when the pool moves onto raw fds the shard
// owns.
var pooledPathCallers = map[string][]string{
	"netpoll_linux.go": {"npRelay.checkout", "npRelay.recycleServer", "fdConn", "npShard.poolSweep"},
}

// TestEventLoopSyscallsStayRaw: no code that runs on an event loop calls a
// package syscall wrapper that enters the scheduler, wraps a socket in an
// os.File or a net.Conn, or calls into the dial pool. One such call on an
// idle P wakes sysmon, and one it outlasts hands the P to another thread:
// context switches and CPU on every request (DESIGN §12). rawsys makes the
// same kernel calls raw.
func TestEventLoopSyscallsStayRaw(t *testing.T) {
	sites, err := schedulerCallSites(loopFiles)
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range loopFiles {
		allowed := map[string]bool{}
		for _, fn := range append(offLoopCallers[file], pooledPathCallers[file]...) {
			allowed[fn] = false
		}
		for _, c := range sites[file] {
			if _, ok := allowed[c.fn]; ok {
				allowed[c.fn] = true
				continue
			}
			t.Errorf("%s: %s in %s enters the scheduler; make it through rawsys", c.pos, c.name, c.fn)
		}
		for fn, used := range allowed {
			if !used {
				t.Errorf("%s: %s is listed as an exception but makes no such call; drop it from the list", file, fn)
			}
		}
	}
}

type callSite struct {
	pos      token.Position
	name, fn string // the callee and the enclosing declaration
}

// schedulerCallSites type-checks the packages holding files and returns,
// by file, their calls that enter the scheduler, in source order. One
// `go list -export` supplies the packages they import.
func schedulerCallSites(files []string) (map[string][]callSite, error) {
	byDir := map[string][]string{}
	for _, f := range files {
		byDir[filepath.Dir(f)] = append(byDir[filepath.Dir(f)], f)
	}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{.Export}}\t{{join .GoFiles \"\\t\"}}"}
	for dir := range byDir {
		args = append(args, "./"+dir)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	exports := map[string]string{}   // import path → export data
	goFiles := map[string][]string{} // package dir → its Go files
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		exports[f[0]] = f[2]
		for _, name := range f[3:] {
			goFiles[f[1]] = append(goFiles[f[1]], filepath.Join(f[1], name))
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	sites := map[string][]callSite{}
	for dir, loop := range byDir {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		var parsed []*ast.File
		for _, name := range goFiles[abs] {
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				return nil, err
			}
			parsed = append(parsed, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		if _, err := (&types.Config{Importer: imp}).Check(dir, fset, parsed, info); err != nil {
			return nil, err
		}
		for _, file := range loop {
			path := filepath.Join(abs, filepath.Base(file))
			for _, f := range parsed {
				if fset.Position(f.Pos()).Filename == path {
					sites[file] = callSitesIn(fset, f, info)
				}
			}
		}
	}
	return sites, nil
}

func callSitesIn(fset *token.FileSet, f *ast.File, info *types.Info) []callSite {
	var sites []callSite
	for _, decl := range f.Decls {
		fn := declName(decl)
		ast.Inspect(decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				id = fun
			case *ast.SelectorExpr:
				id = fun.Sel
			}
			if callee, ok := info.Uses[id].(*types.Func); ok && entersScheduler(callee) {
				sites = append(sites, callSite{fset.Position(call.Pos()), callee.FullName(), fn})
			}
			return true
		})
	}
	return sites
}

// entersScheduler reports whether a call to fn can enter the scheduler
// from a loop: a schedulerSyscalls function, os.NewFile and net.FileConn
// (the socket joins the runtime poller), or anything of the dial pool,
// which holds net.Conns.
func entersScheduler(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	name := fn.Name()
	switch path := fn.Pkg().Path(); {
	case strings.HasSuffix(path, "/dialpool"):
		return true
	case fn.Type().(*types.Signature).Recv() != nil:
		return false
	case path == "os":
		return name == "NewFile"
	case path == "net":
		return name == "FileConn"
	case path != "syscall":
		return false
	}
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
