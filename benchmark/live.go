package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"inbandlb/internal/auditlog"
)

// liveEnv is one running system under test: two memcached backends and one
// lbproxy in front of them, each its own process on the loopback interface.
type liveEnv struct {
	r           *rig
	backends    [2]*child
	backendAddr [2]string
	ctl         [2]*mcConn // direct admin connections, for the delay command
	proxy       *child
	proxyAddr   string
	adminAddr   string
	auditPath   string
}

// faults are the smoke test's deliberate breakages; a real run leaves them
// zero.
type faults struct {
	corruptValues bool // backends are preloaded with values one byte off
	skewAccepted  bool // the identity check sees one connection too many
}

// startLive launches the processes and returns when the proxy has answered
// a request and both backends hold every key. The duration is setup_s:
// process launch → first answer through the proxy → preload done.
//
// lbproxy gets only -listen -backends -policy -admin (and -audit-log): its
// default dataplane, whatever that is at the commit under test.
func (r *rig) startLive(w workload, data *dataset, f faults) (*liveEnv, time.Duration, error) {
	begin := time.Now()
	e := &liveEnv{r: r}
	ok := false
	defer func() {
		if !ok {
			e.stop()
		}
	}()
	var err error
	for i := range e.backends {
		if e.backendAddr[i], err = freePort(); err != nil {
			return nil, 0, err
		}
	}
	if e.proxyAddr, err = freePort(); err != nil {
		return nil, 0, err
	}
	if e.adminAddr, err = freePort(); err != nil {
		return nil, 0, err
	}
	for i := range e.backends {
		e.backends[i], err = r.start(fmt.Sprintf("memcached%d", i), r.testbedCPU, filepath.Join(r.binDir, "memcached"),
			"-addr", e.backendAddr[i])
		if err != nil {
			return nil, 0, err
		}
	}
	args := []string{"-listen", e.proxyAddr, "-backends", e.backendAddr[0] + "," + e.backendAddr[1],
		"-policy", w.policy, "-admin", e.adminAddr}
	if w.audit {
		e.auditPath = filepath.Join(r.outDir, "audit_"+w.Name+".log")
		args = append(args, "-audit-log", e.auditPath)
	}
	if e.proxy, err = r.start("lbproxy", r.dutCPU, filepath.Join(r.binDir, "lbproxy"), args...); err != nil {
		return nil, 0, err
	}
	for i, b := range e.backends {
		if err := waitTCP(e.backendAddr[i], b, 5*time.Second); err != nil {
			return nil, 0, err
		}
	}
	if err := e.firstAnswer(5 * time.Second); err != nil {
		return nil, 0, err
	}
	if err := waitHTTP("http://"+e.adminAddr+"/metrics", e.proxy, 5*time.Second); err != nil {
		return nil, 0, err
	}
	var wg sync.WaitGroup
	var perr [2]error
	for i := range e.backends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perr[i] = data.preload(e.backendAddr[i], f.corruptValues)
		}()
	}
	wg.Wait()
	for _, err := range perr {
		if err != nil {
			return nil, 0, err
		}
	}
	setup := time.Since(begin)
	for i := range e.ctl {
		c, err := net.DialTimeout("tcp", e.backendAddr[i], time.Second)
		if err != nil {
			return nil, 0, err
		}
		e.ctl[i] = newMCConn(c, 64)
	}
	ok = true
	return e, setup, nil
}

// firstAnswer sends a get through the proxy until one is answered.
func (e *liveEnv) firstAnswer(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		select {
		case <-e.proxy.done:
			return fmt.Errorf("lbproxy exited during start-up: %v (see %s)", e.proxy.err,
				filepath.Join(e.r.outDir, "lbproxy.stderr"))
		default:
		}
		c, err := net.DialTimeout("tcp", e.proxyAddr, 200*time.Millisecond)
		if err == nil {
			_ = c.SetDeadline(time.Now().Add(time.Second))
			m := newMCConn(c, 64)
			var reply string
			if reply, err = m.command("get __ready"); err == nil && reply == "END" {
				c.Close()
				return nil
			}
			c.Close()
		}
		last = err
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("lbproxy did not answer a request within %v: %v", timeout, last)
}

// setDelays injects per-request service times on the two backends.
func (e *liveEnv) setDelays(d0, d1 time.Duration) error {
	for i, d := range []time.Duration{d0, d1} {
		_ = e.ctl[i].c.SetDeadline(time.Now().Add(2 * time.Second))
		reply, err := e.ctl[i].command("delay " + d.String())
		if err != nil || reply != "OK" {
			return fmt.Errorf("delay %v on backend %d: %q %v", d, i, reply, err)
		}
	}
	return nil
}

// stop ends the proxy first (SIGTERM seals its audit log), then the
// backends. It is safe on a half-started env.
func (e *liveEnv) stop() {
	for _, c := range e.ctl {
		if c != nil {
			c.close()
		}
	}
	if e.proxy != nil {
		e.r.stop(e.proxy)
		e.proxy = nil
	}
	for i, b := range e.backends {
		if b != nil {
			e.r.stop(b)
			e.backends[i] = nil
		}
	}
}

// quiesce waits for the proxy to finish every connection, then checks what
// must hold of a quiet proxy: no active connection, an empty flow table,
// and Accepted == ΣPerBackend + DialErrors + Dropped.
func (e *liveEnv) quiesce(f faults) (after scrape, identityOK bool, problems []string) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		s, err := scrapeMetrics(e.adminAddr)
		if err != nil {
			// A proxy that stopped answering is the finding; its goroutine
			// dump lands in out/lbproxy.stderr.
			_ = e.proxy.cmd.Process.Signal(syscall.SIGQUIT)
			<-e.proxy.done
			return nil, false, []string{"scrape after quiesce: " + err.Error() + " (goroutine dump in out/lbproxy.stderr)"}
		}
		active, _ := s["lbproxy_active_connections"]
		flows, _ := s["lbproxy_tracked_flows"]
		if (active == 0 && flows == 0) || time.Now().After(deadline) {
			after = s
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v, _ := after["lbproxy_active_connections"]; v != 0 {
		problems = append(problems, fmt.Sprintf("proxy still relays %v connections after every client closed", v))
	}
	if v, _ := after["lbproxy_tracked_flows"]; v != 0 {
		problems = append(problems, fmt.Sprintf("flow table holds %v flows after every connection closed", v))
	}
	accepted, ok1 := after["lbproxy_accepted_total"]
	dialErrs, ok2 := after["lbproxy_dial_errors_total"]
	dropped, ok3 := after["lbproxy_dropped_total"]
	per, ok4 := after.perBackend("lbproxy_backend_connections_total", len(e.backends))
	if !(ok1 && ok2 && ok3 && ok4) {
		return after, false, append(problems, "/metrics lacks a series of the Accepted identity")
	}
	if f.skewAccepted {
		accepted++
	}
	sum := dialErrs + dropped
	for _, v := range per {
		sum += v
	}
	if accepted != sum {
		problems = append(problems, fmt.Sprintf("identity broken: accepted %v != per-backend %v + dial errors %v + dropped %v",
			accepted, per, dialErrs, dropped))
		return after, false, problems
	}
	return after, true, problems
}

// verifyAudit checks the sealed audit log's hash chain end to end. Call it
// after stop.
func (e *liveEnv) verifyAudit() error {
	f, err := os.Open(e.auditPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := auditlog.Verify(f); err != nil {
		return fmt.Errorf("audit log %s: %w", e.auditPath, err)
	}
	return nil
}

// dialOn opens a connection through the proxy that the proxy routed to
// backend want, told from outside by which per-backend connection counter
// moved; a connection routed elsewhere is closed and the dial repeated.
// Nothing else may open connections through the proxy meanwhile.
func (e *liveEnv) dialOn(want int) (net.Conn, error) {
	const family = "lbproxy_backend_connections_total"
	for try := 0; try < 64; try++ {
		before, err := scrapeMetrics(e.adminAddr)
		if err != nil {
			return nil, err
		}
		b, ok := before.perBackend(family, len(e.backends))
		if !ok {
			return nil, fmt.Errorf("/metrics lacks %s", family)
		}
		c, err := net.DialTimeout("tcp", e.proxyAddr, 2*time.Second)
		if err != nil {
			return nil, err
		}
		got := -1
		for deadline := time.Now().Add(2 * time.Second); got < 0 && time.Now().Before(deadline); {
			after, err := scrapeMetrics(e.adminAddr)
			if err != nil {
				c.Close()
				return nil, err
			}
			a, _ := after.perBackend(family, len(e.backends))
			for i := range a {
				if a[i] > b[i] {
					got = i
				}
			}
		}
		if got == want {
			return c, nil
		}
		c.Close()
	}
	return nil, fmt.Errorf("no connection reached backend %d in 64 dials", want)
}

// fleet is a set of connections held open and idle through the proxy.
type fleet []net.Conn

// openFleet dials n connections through the proxy and returns once the
// proxy relays all of them: a dial completes in the kernel's accept queue,
// well before the proxy has accepted, routed and dialled its backend.
func (e *liveEnv) openFleet(n int) (fleet, error) {
	f := make(fleet, 0, n)
	for i := 0; i < n; i++ {
		c, err := net.DialTimeout("tcp", e.proxyAddr, 2*time.Second)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("idle connection %d of %d: %w", i, n, err)
		}
		f = append(f, c)
	}
	for deadline := time.Now().Add(10 * time.Second); n > 0; time.Sleep(5 * time.Millisecond) {
		s, err := scrapeMetrics(e.adminAddr)
		if err != nil {
			f.close()
			return nil, err
		}
		if active, _ := s["lbproxy_active_connections"]; int(active) >= n {
			break
		}
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("proxy relays fewer than the %d idle connections after 10 s", n)
		}
	}
	return f, nil
}

func (f fleet) close() {
	for _, c := range f {
		c.Close()
	}
}

// spec builds the workload's traffic against addr.
func (w workload) spec(addr string, data *dataset, seed int64, trace bool) loadSpec {
	return loadSpec{
		addr: addr, conns: activeConns, data: data, seed: seed,
		reqsPerOp: w.reqsPerOp, closeAfterOp: w.closeAfterOp, reqsPerConn: w.reqsPerConn,
		trace: trace,
	}
}

// placer puts connection i on backend i%2 for workloads whose connections
// live as long as the leg; the others reconnect all the time and see both
// backends anyway.
func (e *liveEnv) placer(w workload) func(int) (net.Conn, error) {
	if w.closeAfterOp || w.reqsPerConn > 0 {
		return nil
	}
	return func(i int) (net.Conn, error) { return e.dialOn(i % len(e.backends)) }
}

// swapper returns the hook of a workload with injected delays: swap(b)
// makes backend b the slow one. Window i calls swap(i%2) at its start, so
// every window begins with the controller pointed the wrong way. (Swapping
// twice per window was tried: the controller then often failed to
// reconverge within the half, and p50 flipped between the fast and the slow
// backend's latency from run to run.) It is nil for the other workloads.
func (e *liveEnv) swapper(w workload, fail func(error)) func(slow int) {
	if w.delays[1] == 0 {
		return nil
	}
	return func(slow int) {
		d := [2]time.Duration{w.delays[0], w.delays[0]}
		d[slow] = w.delays[1]
		if err := e.setDelays(d[0], d[1]); err != nil {
			fail(err)
		}
	}
}
