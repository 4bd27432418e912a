package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// rig owns everything the benchmark leaves on the host: the built binaries,
// the out/ directory and every child process. All children die with it.
type rig struct {
	root   string // repository root (holds cmd/ and internal/)
	binDir string // built programs under test
	outDir string // child stderr, traces, results
	// The rig uses two CPUs as two hosts. The process under test (lbproxy,
	// or the sim child) has dutCPU to itself; the generator and the
	// memcached backends share testbedCPU. Measured here, this layout held
	// kv_small within 2 % from run to run where the scheduler's own
	// placement gave three distinct levels 20 % apart.
	testbedCPU, dutCPU int

	mu       sync.Mutex
	children []*child
}

type child struct {
	name string
	cmd  *exec.Cmd
	pid  int
	done chan struct{} // closed once Wait has returned
	err  error         // Wait's result, valid after done
}

// findRoot locates the repository root from the working directory: the
// driver runs the benchmark from the root, a developer from benchmark/.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "lbproxy", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "benchmark", "go.mod")); err == nil {
				return dir, nil
			}
		}
	}
	return "", fmt.Errorf("repository root (cmd/lbproxy + benchmark/) not found from %s", wd)
}

func newRig() (*rig, error) {
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, fmt.Errorf("sched_getaffinity: %w", err)
	}
	if len(cpus) < 2 {
		return nil, fmt.Errorf("the rig needs 2 cores (generator and proxy must not share one); this process may use %d", len(cpus))
	}
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		return nil, fmt.Errorf("the rig needs /proc for CPU and RSS accounting: %w", err)
	}
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	r := &rig{
		testbedCPU: cpus[0], dutCPU: cpus[1],
		root:   root,
		binDir: filepath.Join(root, ".bench_build", "bin"),
		outDir: filepath.Join(root, "benchmark", "out"),
	}
	for _, d := range []string{r.binDir, r.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// build compiles the two programs under test from the checkout's source and
// returns how long that took (build cache dependent, so never gated).
func (r *rig) build() (time.Duration, error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", r.binDir+string(os.PathSeparator),
		"./cmd/memcached", "./cmd/lbproxy")
	cmd.Dir = r.root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return 0, fmt.Errorf("go build: %v\n%s", err, out)
	}
	return time.Since(start), nil
}

// freePort finds an unused loopback port below the kernel's ephemeral range.
// A port the kernel hands out for port 0 lies inside that range, where any
// outgoing connection the rig makes before the child binds (a readiness
// probe, a preload) can take it as its source port: measured, one start in
// about 600 then failed with "address already in use". Ports below the
// range are only ever taken by listeners, and a listener is what the probe
// here checks for.
func freePort() (string, error) {
	low := 32768
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(b)); len(f) == 2 {
			if v, err := strconv.Atoi(f[0]); err == nil {
				low = v
			}
		}
	}
	const first = 10000
	if low-first < 1000 {
		return "", fmt.Errorf("no room below the ephemeral port range (starts at %d)", low)
	}
	for try := 0; try < 1000; try++ {
		port := first + int(portCursor.Add(1)+uint32(os.Getpid())*31)%(low-first)
		addr := "127.0.0.1:" + strconv.Itoa(port)
		l, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		l.Close()
		return addr, nil
	}
	return "", errors.New("no free port found in 1000 tries")
}

var portCursor atomic.Uint32

// start launches one child in its own process group with stderr and stdout
// kept under out/. The kernel kills it if the benchmark dies first.
func (r *rig) start(name string, cpu int, bin string, args ...string) (*child, error) {
	logf, err := os.Create(filepath.Join(r.outDir, name+".stderr"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor after Start
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	return r.launch(name, cmd, cpu)
}

// launch starts cmd confined to one CPU. A Go child sizes GOMAXPROCS from
// the mask it inherits, so each runs one P on its one CPU.
func (r *rig) launch(name string, cmd *exec.Cmd, cpu int) (*child, error) {
	if err := startOn(cmd, cpu, r.testbedCPU); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, pid: cmd.Process.Pid, done: make(chan struct{})}
	go func() {
		c.err = cmd.Wait()
		close(c.done)
	}()
	r.mu.Lock()
	r.children = append(r.children, c)
	r.mu.Unlock()
	return c, nil
}

// stop ends a child: SIGTERM so lbproxy seals its audit log, SIGKILL if it
// does not leave within the grace period. It returns once the child is
// reaped.
func (r *rig) stop(c *child) {
	select {
	case <-c.done:
	default:
		_ = c.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-c.done:
		case <-time.After(3 * time.Second):
			_ = c.cmd.Process.Kill()
			<-c.done
		}
	}
	r.mu.Lock()
	for i, o := range r.children {
		if o == c {
			r.children = append(r.children[:i], r.children[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
}

// stopAll kills whatever is still running, then checks /proc for anything
// launched from binDir that outlived its Wait.
func (r *rig) stopAll() error {
	r.mu.Lock()
	cs := append([]*child(nil), r.children...)
	r.mu.Unlock()
	for _, c := range cs {
		_ = c.cmd.Process.Kill()
	}
	for _, c := range cs {
		<-c.done
	}
	r.mu.Lock()
	r.children = nil
	r.mu.Unlock()
	return r.leftovers()
}

func (r *rig) leftovers() error {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return err
	}
	var left []string
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid == os.Getpid() {
			continue
		}
		exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		if err != nil || !strings.HasPrefix(exe, r.binDir+string(os.PathSeparator)) {
			continue
		}
		if st, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat")); err == nil {
			if i := strings.LastIndexByte(string(st), ')'); i >= 0 && strings.HasPrefix(string(st[i+1:]), " Z") {
				continue // a zombie another rig instance is about to reap
			}
		}
		left = append(left, fmt.Sprintf("%d (%s)", pid, filepath.Base(exe)))
		_ = syscall.Kill(pid, syscall.SIGKILL)
	}
	if len(left) > 0 {
		return fmt.Errorf("leftover processes killed: %s", strings.Join(left, ", "))
	}
	return nil
}

// killOnSignal tears the children down when the benchmark is interrupted.
func (r *rig) killOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		_ = r.stopAll()
		os.Exit(130)
	}()
}

// waitTCP probes addr until it accepts a connection: readiness by probing,
// never by sleeping.
func waitTCP(addr string, c *child, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			return nil
		}
		select {
		case <-c.done:
			return fmt.Errorf("%s exited before listening on %s: %v", c.name, addr, c.err)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not listening on %s after %v: %v", c.name, addr, timeout, err)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

func waitHTTP(url string, c *child, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := adminClient.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = errors.New(resp.Status)
		}
		select {
		case <-c.done:
			return fmt.Errorf("%s exited before serving %s: %v", c.name, url, c.err)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not serving %s after %v: %v", c.name, url, timeout, err)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// procSample is one reading of a process's kernel accounting.
type procSample struct {
	userUS, sysUS float64 // CPU consumed so far, all threads, dead ones included
	ctxSwitches   int64   // voluntary + involuntary, summed over live threads
	threads       int
	rssKiB        int64
	hwmKiB        int64 // peak RSS
}

func (p procSample) cpuUS() float64 { return p.userUS + p.sysUS }

// userHZ is the unit of utime/stime in /proc/<pid>/stat; Linux fixes it at
// 100 for every architecture Go runs on.
const userHZ = 100

func readProc(pid int) (procSample, error) {
	var s procSample
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, so 12th and 13th (index 11, 12) here.
	i := strings.LastIndexByte(string(stat), ')')
	f := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	s.userUS, s.sysUS = ut*1e6/userHZ, st*1e6/userHZ

	status, err := readStatus(filepath.Join(dir, "status"))
	if err != nil {
		return s, err
	}
	s.threads = int(status["Threads"])
	s.rssKiB, s.hwmKiB = status["VmRSS"], status["VmHWM"]

	tasks, err := os.ReadDir(filepath.Join(dir, "task"))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		ts, err := readStatus(filepath.Join(dir, "task", t.Name(), "status"))
		if err != nil {
			continue // the thread exited between ReadDir and here
		}
		s.ctxSwitches += ts["voluntary_ctxt_switches"] + ts["nonvoluntary_ctxt_switches"]
	}
	return s, nil
}

// readStatus returns the integer-valued lines of a /proc status file.
func readStatus(path string) (map[string]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]int64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		fields := strings.Fields(v)
		if len(fields) == 0 {
			continue
		}
		if n, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
			out[k] = n
		}
	}
	return out, sc.Err()
}
