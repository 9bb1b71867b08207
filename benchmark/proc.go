package main

import (
	"bufio"
	"errors"
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

// proc is one subprocess of the system under test (or the echo peer). Its
// standard streams go to a log file in the run directory, which is shown
// when the process fails to come up.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed once the process has been waited for
	err  error         // its exit status, valid after done
}

// startProc launches bin with dir as its working directory, so relative
// socket and segment paths stay short (a unix socket path is capped at 108
// bytes, and a checkout may sit deep).
func startProc(dir, bin string, args ...string) (*proc, error) {
	name := filepath.Base(bin)
	logPath := filepath.Join(dir, name+".log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = logf, logf
	// A crash of the benchmark must not leave its children behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// stop asks the process to end, waits for it, and kills it if it lingers.
// The wait is what lets the caller read the archive the process sealed on
// its way out.
func (p *proc) stop() error {
	if p == nil {
		return nil
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine: done below tells
	select {
	case <-p.done:
		if p.err != nil {
			return fmt.Errorf("%s: %w\n%s", p.name, p.err, p.logTail())
		}
		return nil
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("%s: did not exit on SIGTERM, killed", p.name)
	}
}

func (p *proc) logTail() string {
	b, err := os.ReadFile(p.log)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// startStore launches armus-store in dir on a unix socket and waits for the
// socket. It returns the address as this process dials it; a process running
// in dir dials "unix:store.sock".
func startStore(e env, dir string) (*proc, string, error) {
	p, err := startProc(dir, filepath.Join(e.bin, "armus-store"), "-addr", "unix:store.sock")
	if err != nil {
		return nil, "", err
	}
	sock := filepath.Join(dir, "store.sock")
	if err := p.waitFor(func() error { _, err := os.Stat(sock); return err }); err != nil {
		return nil, "", errors.Join(err, p.stop())
	}
	return p, "unix:" + sock, nil
}

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat counts CPU time in
// these. It is 100 on every Linux the Go toolchain supports and cannot be
// queried without cgo.
const clockTick = 10 * time.Millisecond

// cpu is the user+system CPU time the process has used so far.
func (p *proc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("%s: short /proc stat line", p.name)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("%s: unparsable /proc stat line", p.name)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMiB is the process's resident-set high-water mark.
func (p *proc) peakRSSMiB() (float64, error) { return peakRSSMiB(p.cmd.Process.Pid) }

func peakRSSMiB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("pid %d: unparsable VmHWM %q", pid, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("pid %d: no VmHWM in /proc status", pid)
}

// selfCPU is this process's user+system CPU time, at microsecond resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// freeAddr returns a loopback TCP address nothing listens on right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitFor polls ready until it succeeds, the process dies or 15 s pass.
func (p *proc) waitFor(ready func() error) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		err := ready()
		if err == nil {
			return nil
		}
		if !p.alive() {
			return fmt.Errorf("%s exited before it was ready\n%s", p.name, p.logTail())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 15s: %w\n%s", p.name, err, p.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (p *proc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

var httpClient = &http.Client{Timeout: 5 * time.Second}

func httpOK(url string) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return nil
}

// scrape reads a Prometheus text page into name → value. A labelled series
// keeps its labels in the name.
func scrape(url string) (map[string]float64, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: unparsable sample %q", url, line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// loadAvg1 is the host's one-minute load average, recorded so that a noisy
// host shows in the result.
func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64) // 0 on a malformed file is as good as absent
	return v
}
