package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Process hygiene: the servers are the real binaries built from
// ./cmd, each in its own process group, on kernel-assigned loopback
// ports, with stdout+stderr kept in bench/out/<workload>.<proc>.log.
// Every spawned process is in the live set until it has been reaped;
// killAll empties the set on normal exit, SIGINT/SIGTERM and panic.

const (
	healthTimeout = 90 * time.Second
	stopGrace     = 5 * time.Second
)

var serverBinaries = []string{"ivrroute", "ivrserve", "ivrsegment"}

// buildServers compiles the three serving binaries from source into
// binDir. Build time is excluded from setup_s and printed as build_s;
// the go tool skips up-to-date targets, so this is a fraction of a
// second after the first run in a checkout.
func buildServers(ctx context.Context, repoRoot, binDir string) (time.Duration, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return 0, err
	}
	start := time.Now()
	args := []string{"build", "-o", binDir + string(os.PathSeparator)}
	for _, b := range serverBinaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/...: %v\n%s", err, out)
	}
	return time.Since(start), nil
}

// freePort asks the kernel for an unused loopback port. The listener
// is closed before the server binds it; the window is tiny and a lost
// race fails the health wait loudly rather than silently.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	url  string
	done chan struct{} // closed once Wait has returned
	err  error         // Wait's result, valid after done
}

var live struct {
	sync.Mutex
	procs map[*proc]struct{}
}

// spawn starts bin on a fresh port (passed as -addr) with its output
// appended to logPath.
func spawn(name, bin, logPath string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// Own process group, so the harness can signal a server and
	// anything it forks as one; Pdeathsig covers the exits no deferred
	// call sees (the harness itself being killed).
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logf, url: "http://" + addr, done: make(chan struct{})}
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*proc]struct{})
	}
	live.procs[p] = struct{}{}
	live.Unlock()
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// waitHealthy polls path until it answers 200, the process dies, or
// the hard timeout passes.
func (p *proc) waitHealthy(path string) error {
	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(healthTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before becoming healthy: %v (see %s)", p.name, p.err, p.log.Name())
		default:
		}
		resp, err := hc.Get(p.url + path)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after %s (see %s)", p.name, healthTimeout, p.log.Name())
}

// peakRSSMB reads the process's resident-set high-water mark.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

// stop ends the process: SIGTERM for a graceful drain, SIGKILL to the
// whole group if it lingers, and returns only once it has been reaped.
func (p *proc) stop() {
	pid := p.cmd.Process.Pid
	_ = syscall.Kill(-pid, syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(stopGrace):
		_ = syscall.Kill(-pid, syscall.SIGKILL)
		<-p.done
	}
	// The leader is gone; make sure nothing it forked survives.
	_ = syscall.Kill(-pid, syscall.SIGKILL)
	p.log.Close()
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
}

// killAll is the last-resort sweep for exits that skip the normal
// teardown (signal, panic, error path).
func killAll() {
	live.Lock()
	procs := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.Unlock()
	for _, p := range procs {
		_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	}
	for _, p := range procs {
		<-p.done
		p.log.Close()
		live.Lock()
		delete(live.procs, p)
		live.Unlock()
	}
}

// Topology kinds: what a workload runs against.
const (
	topoServe   = "serve"   // one ivrserve -segments 2
	topoJournal = "journal" // one ivrserve -segments 2 -session-store <tmp>/s.jnl
	topoTiers   = "tiers"   // ivrroute -> ivrserve -segment-addrs -> 2 x ivrsegment
)

// topology is one running set of server processes.
type topology struct {
	procs    []*proc
	apiURL   string   // where the simulated users connect
	serveURL string   // the ivrserve process (its /api/v1/metrics)
	routeURL string   // the ivrroute process, tiers only
	segURLs  []string // the ivrsegment processes, tiers only
	journal  string   // session journal path, journal only
}

// startTopology launches kind's processes and returns once every one
// answers its health check. logPrefix is bench/out/<workload>.
func startTopology(kind, binDir, archive, tmpDir, logPrefix string) (tp *topology, err error) {
	tp = &topology{}
	defer func() {
		if err != nil {
			tp.stop()
		}
	}()
	start := func(name, bin string, args ...string) (*proc, error) {
		p, err := spawn(name, filepath.Join(binDir, bin), logPrefix+"."+name+".log", args...)
		if err != nil {
			return nil, err
		}
		tp.procs = append(tp.procs, p)
		return p, nil
	}
	const apiHealth, rpcHealth = "/api/v1/healthz", "/rpc/v1/healthz"
	switch kind {
	case topoServe, topoJournal:
		args := []string{"-quiet", "-archive", archive, "-segments", "2"}
		if kind == topoJournal {
			tp.journal = filepath.Join(tmpDir, "s.jnl")
			_ = os.Remove(tp.journal)
			args = append(args, "-session-store", tp.journal)
		}
		srv, err := start("ivrserve", "ivrserve", args...)
		if err != nil {
			return tp, err
		}
		if err := srv.waitHealthy(apiHealth); err != nil {
			return tp, err
		}
		tp.apiURL, tp.serveURL = srv.url, srv.url
	case topoTiers:
		// ivrserve's stats handshake needs both segment servers up, and
		// ivrroute needs ivrserve: start bottom-up.
		var segs []*proc
		for host := 0; host < 2; host++ {
			seg, err := start("ivrsegment"+strconv.Itoa(host), "ivrsegment",
				"-quiet", "-archive", archive, "-segments", "2", "-host", strconv.Itoa(host))
			if err != nil {
				return tp, err
			}
			segs = append(segs, seg)
			tp.segURLs = append(tp.segURLs, seg.url)
		}
		for _, seg := range segs {
			if err := seg.waitHealthy(rpcHealth); err != nil {
				return tp, err
			}
		}
		srv, err := start("ivrserve", "ivrserve",
			"-quiet", "-archive", archive, "-segment-addrs", strings.Join(tp.segURLs, ","))
		if err != nil {
			return tp, err
		}
		if err := srv.waitHealthy(apiHealth); err != nil {
			return tp, err
		}
		rt, err := start("ivrroute", "ivrroute", "-quiet", "-replicas", srv.url)
		if err != nil {
			return tp, err
		}
		if err := rt.waitHealthy(apiHealth); err != nil {
			return tp, err
		}
		tp.apiURL, tp.serveURL, tp.routeURL = rt.url, srv.url, rt.url
	default:
		return tp, fmt.Errorf("unknown topology %q", kind)
	}
	return tp, nil
}

// peakRSSMB sums the resident-set high-water marks of the topology's
// processes.
func (tp *topology) peakRSSMB() (float64, error) {
	var sum float64
	for _, p := range tp.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// stop shuts the processes down front to back and removes the
// journal.
func (tp *topology) stop() {
	for i := len(tp.procs) - 1; i >= 0; i-- {
		tp.procs[i].stop()
	}
	tp.procs = nil
	if tp.journal != "" {
		_ = os.Remove(tp.journal)
	}
}
