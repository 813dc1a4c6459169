package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Daemon is one process under test (stpt-serve or stpt-gate).
type Daemon struct {
	Name string
	URL  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon launches bin with args plus -addr on a free port, logging
// to logDir/name.log.
func startDaemon(bin, name, logDir string, args ...string) (*Daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	log, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	d := &Daemon{Name: name, URL: "http://" + addr, cmd: cmd, log: log, done: make(chan struct{})}
	go func() { cmd.Wait(); close(d.done) }()
	return d, nil
}

// waitReady polls /readyz until it answers 200.
func (d *Daemon) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before it was ready (see %s)", d.Name, d.log.Name())
		default:
		}
		resp, err := probeClient.Get(d.URL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %s", d.Name, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// PeakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (d *Daemon) PeakRSSMB() float64 { return peakRSSMB(d.cmd.Process.Pid) }

// Stop terminates the daemon (SIGTERM, then SIGKILL after 5 s) and waits
// until it has exited.
func (d *Daemon) Stop() {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}

// stopAll stops every daemon.
func stopAll(ds []*Daemon) {
	for _, d := range ds {
		d.Stop()
	}
}

// peakRSSMB reads VmHWM from /proc/<pid>/status, in MB (0 if unreadable).
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid > 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
