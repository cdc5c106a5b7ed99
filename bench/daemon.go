package main

import (
	"bytes"
	"errors"
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

// Daemon lifecycle. vcodecd and vcodec-gateway are built from this
// checkout, exec'd as separate OS processes (an in-process server on a
// small host makes client readers starve behind encode goroutines), bound
// to 127.0.0.1:0 and discovered through -addrfile, waited on via /healthz,
// and stopped with SIGTERM, which must drain and exit 0. Each runs in its
// own process group so that a failure or timeout can kill it outright: no
// orphan daemons, no fixed ports.

// buildDir holds everything building and running leave behind, relative to
// the bench module directory (the process's working directory).
const buildDir = "../.bench_build"

// buildDaemons compiles the two daemons into buildDir/bin. The go tool
// skips the work when the binaries are current, so this is cheap on every
// run but the first.
func buildDaemons() (dir string, dur time.Duration, err error) {
	dir, err = filepath.Abs(filepath.Join(buildDir, "bin"))
	if err != nil {
		return "", 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	t := time.Now()
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "repro/cmd/vcodecd", "repro/cmd/vcodec-gateway")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building daemons: %v\n%s", err, out)
	}
	return dir, time.Since(t), nil
}

type daemon struct {
	name string
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *bytes.Buffer
	done chan struct{} // closed once cmd.Wait has returned
	werr error         // cmd.Wait's result, valid after done
}

// live tracks every running daemon so that a failure path, a signal or the
// watchdog can kill them all.
var live struct {
	sync.Mutex
	m map[*daemon]struct{}
}

func killAllDaemons() {
	live.Lock()
	defer live.Unlock()
	for d := range live.m {
		d.kill()
	}
}

// startDaemon execs bin with args plus a random-port -addr/-addrfile pair
// and returns once /healthz answers 200.
func startDaemon(name, bin, runDir string, args ...string) (*daemon, error) {
	addrfile := filepath.Join(runDir, fmt.Sprintf("%s-%d.addr", name, time.Now().UnixNano()))
	d := &daemon{name: name, log: &bytes.Buffer{}, done: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-addrfile", addrfile}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	live.Lock()
	if live.m == nil {
		live.m = map[*daemon]struct{}{}
	}
	live.m[d] = struct{}{}
	live.Unlock()
	go func() {
		d.werr = d.cmd.Wait()
		close(d.done)
	}()

	deadline := time.Now().Add(10 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			d.forget()
			return nil, fmt.Errorf("%s exited during start-up: %v\n%s", name, d.werr, d.log)
		default:
		}
		if d.base == "" {
			// The file appears empty before it is complete: accept it
			// only once it parses as host:port.
			if b, err := os.ReadFile(addrfile); err == nil {
				if _, _, err := net.SplitHostPort(strings.TrimSpace(string(b))); err == nil {
					d.base = "http://" + strings.TrimSpace(string(b))
				}
			}
		}
		if d.base != "" {
			if resp, err := client.Get(d.base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.kill()
	<-d.done // the log is complete only once the process is reaped
	d.forget()
	return nil, fmt.Errorf("%s not healthy within 10s\n%s", name, d.log)
}

func (d *daemon) forget() {
	live.Lock()
	delete(live.m, d)
	live.Unlock()
}

// kill ends the daemon's whole process group at once.
func (d *daemon) kill() {
	if d.cmd.Process != nil {
		_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	}
}

// stop asks the daemon to drain and requires a clean exit: a daemon that
// needs killing, or exits non-zero, fails the run.
func (d *daemon) stop() error {
	defer d.forget()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.kill()
		return fmt.Errorf("%s: SIGTERM: %w", d.name, err)
	}
	select {
	case <-d.done:
		if d.werr != nil {
			return fmt.Errorf("%s did not drain cleanly: %v\n%s", d.name, d.werr, d.log)
		}
		return nil
	case <-time.After(10 * time.Second):
		d.kill()
		<-d.done
		return fmt.Errorf("%s ignored SIGTERM for 10s; killed\n%s", d.name, d.log)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// procStatusMB reads a kB field (VmHWM, VmRSS) of /proc/<pid>/status in MB.
func procStatusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status %s: %w", pid, field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, field)
}

// userHz is the kernel's clock-tick unit for /proc/<pid>/stat times; it is
// 100 on every Linux ABI Go supports.
const userHz = 100

// procCPUSeconds is the user + system CPU time pid has consumed.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64) // field 14: utime
	st, err2 := strconv.ParseFloat(f[12], 64) // field 15: stime
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return (ut + st) / userHz, nil
}
