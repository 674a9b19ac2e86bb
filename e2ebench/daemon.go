package main

import (
	"errors"
	"fmt"
	"io/fs"
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

// daemonFlags are the tspdbd settings of every run, on both sides of every
// comparison: durable with a real WAL, segments and checkpoints; no fsync
// per commit (an fsync costs ~0.5 ms on a small VM and made served ingest
// slower and far noisier); all cores for view builds and read kernels; the
// default 4 MiB checkpoint threshold.
var daemonFlags = []string{"-fsync=false", "-parallel", "0", "-log-level", "warn"}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat (100
// on every Linux ABI Go supports).
const clockTicks = 100

// daemon is one running tspdbd child process.
type daemon struct {
	bin, dataDir, logPath string
	base                  string // http://127.0.0.1:<port>
	cmd                   *exec.Cmd
	exited                chan struct{}
}

// startDaemon launches tspdbd over dataDir and waits until it is healthy.
func startDaemon(bin, dataDir, logPath string) (*daemon, error) {
	d := &daemon{bin: bin, dataDir: dataDir, logPath: logPath}
	return d, d.launch()
}

// launch starts the process on a free loopback port and waits until
// /healthz answers, which is after the durable catalog has been recovered.
// A port taken between probing and binding makes the child exit at once;
// that is retried on a fresh port.
func (d *daemon) launch() error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = d.start(); err == nil {
			return nil
		}
	}
	return err
}

// restart SIGKILLs the daemon and starts it again over the same data
// directory.
func (d *daemon) restart() error {
	d.kill()
	return d.launch()
}

func (d *daemon) start() error {
	port, err := freePort()
	if err != nil {
		return err
	}
	logf, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-addr", addr, "-data-dir", d.dataDir}, daemonFlags...)
	cmd := exec.Command(d.bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even when the benchmark is
	// killed before it can stop the daemon itself.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start tspdbd: %w", err)
	}
	d.cmd, d.exited = cmd, make(chan struct{})
	exited := d.exited
	go func() {
		_ = cmd.Wait() // an exit shows through d.exited; the log holds the reason
		logf.Close()
		close(exited)
	}()
	d.base = "http://" + addr
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("tspdbd exited during start-up (see %s)", d.logPath)
		default:
		}
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.kill()
	return errors.New("tspdbd did not become healthy within 60s")
}

// kill sends SIGKILL, so no shutdown path runs, and waits until the
// process has exited.
func (d *daemon) kill() {
	if d.exited == nil {
		return
	}
	_ = d.cmd.Process.Kill() // fails only when the process is already gone
	<-d.exited
}

// cpuSeconds is the process's utime+stime so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, utime
	// and stime are fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// dirBytes is the total size of the regular files under dir. The daemon
// may be checkpointing meanwhile, so a file that vanishes between listing
// and stat (a renamed temporary segment, a trimmed WAL file) is skipped.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
