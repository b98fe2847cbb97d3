package main

// Building, spawning and observing the real hdld. Everything the daemon
// writes (access log, WAL, snapshot) lives under the run's scratch
// directory; every exit path goes through stop, which SIGTERMs and waits.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// buildHdld compiles cmd/hdld from the checkout at root into outDir.
func buildHdld(root, outDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "hdld"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hdld")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/hdld in %s: %v\n%s", root, err, out)
	}
	return bin, nil
}

// active is the daemon, and activeDir the run directory, that a signal
// handler must stop and remove before the benchmark dies (main installs
// the handler); at most one of each exists at a time.
var (
	active    atomic.Pointer[daemon]
	activeDir atomic.Pointer[string]
)

type daemon struct {
	cmd     *exec.Cmd
	addr    string
	logPath string
	client  *http.Client
	done    chan struct{} // closed once the process has been waited for
	waitErr error         // cmd.Wait's result; read only after done
}

// startDaemon spawns hdld on an ephemeral loopback port with stderr
// going straight to a file (no pipe for the benchmark to drain during the
// window), and returns once the "listening" log line names the port.
func startDaemon(bin, dir string, args ...string) (*daemon, error) {
	logPath := filepath.Join(dir, "hdld.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-log", "json"}, args...)...)
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hdld: %w", err)
	}
	d := &daemon{cmd: cmd, logPath: logPath, client: &http.Client{Timeout: 30 * time.Second}, done: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
	}()
	active.Store(d)
	deadline := time.Now().Add(20 * time.Second)
	for d.addr == "" {
		select {
		case <-d.done:
			return nil, fmt.Errorf("hdld exited before listening (%v); log: %s\n%s", d.waitErr, logPath, tail(logPath))
		default:
		}
		if time.Now().After(deadline) {
			_ = d.stop()
			return nil, fmt.Errorf("hdld: no listening line within 20s; log: %s\n%s", logPath, tail(logPath))
		}
		d.addr = listeningAddr(logPath)
		if d.addr == "" {
			time.Sleep(time.Millisecond)
		}
	}
	return d, nil
}

// listeningAddr scans the daemon's JSON log for its "listening" line, the
// way cmd/cmd_test.go startHdld learns the ephemeral port.
func listeningAddr(logPath string) string {
	data, err := os.ReadFile(logPath)
	if err != nil {
		return ""
	}
	for _, ln := range bytes.Split(data, []byte("\n")) {
		var line struct {
			Msg  string `json:"msg"`
			Addr string `json:"addr"`
		}
		if json.Unmarshal(ln, &line) == nil && line.Msg == "listening" {
			return line.Addr
		}
	}
	return ""
}

func tail(path string) string {
	data, _ := os.ReadFile(path)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady() error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := d.client.Get(d.url("/readyz"))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hdld not ready within 20s (last error %v); log: %s", err, d.logPath)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop SIGTERMs the daemon and waits for it; a daemon still alive after
// the drain grace is killed. Safe to call twice.
func (d *daemon) stop() error {
	if d == nil || d.cmd.Process == nil {
		return nil
	}
	active.CompareAndSwap(d, nil)
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		var ee *exec.ExitError
		if errors.As(d.waitErr, &ee) && ee.ExitCode() != 0 {
			return fmt.Errorf("hdld exited %d; log: %s", ee.ExitCode(), d.logPath)
		}
		return nil
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("hdld ignored SIGTERM for 15s and was killed; log: %s", d.logPath)
	}
}

// varsSnapshot is the part of /debug/vars the per-layer metrics read.
type varsSnapshot struct {
	Hypo     map[string]any `json:"hypo"` // numbers, plus the latency histogram object
	MemStats struct {
		TotalAlloc   uint64
		Mallocs      uint64
		NumGC        uint32
		PauseTotalNs uint64
	} `json:"memstats"`
}

// counter reads one numeric entry of the hypo map (0 when absent).
func (v varsSnapshot) counter(key string) float64 {
	f, _ := v.Hypo[key].(float64)
	return f
}

func (d *daemon) vars() (varsSnapshot, error) {
	var v varsSnapshot
	resp, err := d.client.Get(d.url("/debug/vars"))
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return v, nil
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux ABI Go supports.
const clockTicks = 100

// cpuSample is the daemon's user and system CPU time so far, in
// seconds, and when it was read.
type cpuSample struct {
	at        time.Time
	user, sys float64
}

func (d *daemon) cpuSample() (cpuSample, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return cpuSample{}, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ")".
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return cpuSample{}, fmt.Errorf("short /proc stat line: %q", data)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return cpuSample{}, fmt.Errorf("bad /proc stat times: %q %q", f[11], f[12])
	}
	return cpuSample{at: time.Now(), user: ut / clockTicks, sys: st / clockTicks}, nil
}

// peakRSSMB reads the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(ln, "VmHWM:") {
			f := strings.Fields(ln)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
