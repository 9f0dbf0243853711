package main

import (
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

	"planet/internal/httpapi"
)

// liveNode is one planetd process.
type liveNode struct {
	region   string
	httpAddr string
	dataDir  string
	args     []string
	client   *httpapi.Client

	cmd  *exec.Cmd
	logf *os.File
}

// liveTrio is a running three-node deployment.
type liveTrio struct {
	binary string
	dir    string
	nodes  []*liveNode
	maxRSS int64 // KiB, largest reaped node
}

// httpClient is shared by every request the generator makes; its idle
// pool covers the in-flight bound so connections are reused.
var httpClient = &http.Client{
	Timeout:   10 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 16},
}

func freePorts(n int) ([]int, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range lns {
			l.Close()
		}
	}()
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// bootTrio launches the three nodes in a fresh data dir and waits until
// every gateway serves reads and sees both peers up.
func bootTrio(binary, dir string) (*liveTrio, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ports, err := freePorts(2 * len(liveRegions))
	if err != nil {
		return nil, err
	}
	t := &liveTrio{binary: binary, dir: dir}
	var peers []string
	for i, r := range liveRegions {
		nd := &liveNode{
			region:   r,
			httpAddr: fmt.Sprintf("127.0.0.1:%d", ports[2*i]),
			dataDir:  filepath.Join(dir, r),
		}
		nd.client = &httpapi.Client{Base: "http://" + nd.httpAddr, HTTP: httpClient}
		peers = append(peers, fmt.Sprintf("%s=127.0.0.1:%d", r, ports[2*i+1]))
		t.nodes = append(t.nodes, nd)
	}
	for i, nd := range t.nodes {
		nd.args = []string{
			"-realnet", "-region", nd.region,
			"-listen", fmt.Sprintf("127.0.0.1:%d", ports[2*i+1]),
			"-peers", strings.Join(peers, ","),
			"-addr", nd.httpAddr,
			"-datadir", nd.dataDir,
			"-committimeout", "1s",
		}
	}
	for _, nd := range t.nodes {
		if err := t.start(nd); err != nil {
			t.kill()
			return nil, err
		}
	}
	for _, nd := range t.nodes {
		if err := t.waitReady(nd, 20*time.Second); err != nil {
			t.kill()
			return nil, err
		}
	}
	return t, nil
}

func (t *liveTrio) start(nd *liveNode) error {
	logf, err := os.OpenFile(filepath.Join(t.dir, nd.region+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(t.binary, nd.args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The nodes must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start %s: %w", nd.region, err)
	}
	nd.cmd, nd.logf = cmd, logf
	return nil
}

// waitReady polls a node until it serves a seeded key and reports every
// peer up.
func (t *liveTrio) waitReady(nd *liveNode, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if r, err := nd.client.Read("acct-1"); err == nil && r.Found {
			if p, err := nd.client.NetPeers(); err == nil && allUp(p.Peers) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %s not ready within %v (log in %s)", nd.region, timeout, t.dir)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func allUp(peers map[string]string) bool {
	if len(peers) != len(liveRegions)-1 {
		return false
	}
	for _, st := range peers {
		if st != "up" {
			return false
		}
	}
	return true
}

// reap waits for a signalled node and records its peak RSS.
func (t *liveTrio) reap(nd *liveNode) {
	nd.cmd.Wait() // a killed node exits non-zero by design
	if ru, ok := nd.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru.Maxrss > t.maxRSS {
		t.maxRSS = ru.Maxrss
	}
	nd.logf.Close()
	nd.cmd, nd.logf = nil, nil
}

// killNode delivers SIGKILL to one node and reaps it.
func (t *liveTrio) killNode(nd *liveNode) {
	if nd.cmd == nil {
		return
	}
	nd.cmd.Process.Kill()
	t.reap(nd)
}

// kill SIGKILLs every running node.
func (t *liveTrio) kill() {
	for _, nd := range t.nodes {
		t.killNode(nd)
	}
}

// stop shuts every running node down gracefully (SIGTERM), falling back to
// SIGKILL after the timeout, and waits for each to exit.
func (t *liveTrio) stop(timeout time.Duration) {
	var wg sync.WaitGroup
	for _, nd := range t.nodes {
		if nd.cmd == nil {
			continue
		}
		nd.cmd.Process.Signal(syscall.SIGTERM)
		wg.Add(1)
		go func(nd *liveNode) {
			defer wg.Done()
			timer := time.AfterFunc(timeout, func() { nd.cmd.Process.Kill() })
			defer timer.Stop()
			nd.cmd.Wait()
		}(nd)
	}
	wg.Wait()
	for _, nd := range t.nodes {
		if nd.cmd != nil {
			t.reap(nd)
		}
	}
}

// nodeCPU returns a running node's user+system CPU time from /proc.
func nodeCPU(nd *liveNode) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", nd.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat of %s", nd.region)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

func (t *liveTrio) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, nd := range t.nodes {
		c, err := nodeCPU(nd)
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// walPath is a node's on-disk WAL.
func walPath(nd *liveNode) string {
	return filepath.Join(nd.dataDir, fmt.Sprintf("wal-%s.jsonl", nd.region))
}
