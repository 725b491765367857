package main

// Building, booting and reading a real skynetd as a black box: CLI
// flags in, /healthz, /api/stats and the process accounting out.

import (
	"context"
	"encoding/json"
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

// buildDir holds everything the benchmark builds, inside the checkout.
const buildDir = ".bench_build"

// repoRoot finds the checkout root: the directory above the benchmark's
// own that holds the daemon's source.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "skynetd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/skynetd above the working directory: run from the skynet checkout")
		}
		dir = parent
	}
}

// buildDaemon compiles ./cmd/skynetd from the working tree.
func buildDaemon(ctx context.Context, root string) (string, error) {
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(root, buildDir, "skynetd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/skynetd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/skynetd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running skynetd.
type daemon struct {
	cmd                *exec.Cmd
	tcp, udp, httpAddr string
	client             *http.Client
	done               chan struct{} // closed when the process has been waited for
	waitErr            error
}

// freeAddrs reserves three loopback ports by binding and releasing them.
func freeAddrs() (tcp, udp, httpAddr string, err error) {
	pick := func() (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		defer ln.Close()
		return ln.Addr().String(), nil
	}
	if tcp, err = pick(); err != nil {
		return
	}
	if httpAddr, err = pick(); err != nil {
		return
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return
	}
	defer pc.Close()
	return tcp, pc.LocalAddr().String(), httpAddr, nil
}

// bootDaemon starts skynetd with shipped defaults at the benchmark's
// tick and returns once /healthz answers.
func bootDaemon(ctx context.Context, bin, root string) (*daemon, error) {
	tcp, udp, httpAddr, err := freeAddrs()
	if err != nil {
		return nil, fmt.Errorf("reserve ports: %w", err)
	}
	cmd := exec.Command(bin,
		"-scale", "production", "-tick", tickEvery.String(),
		"-flight-dir", "", "-profile-dir", "",
		"-tcp", tcp, "-udp", udp, "-http", httpAddr)
	cmd.Dir = filepath.Join(root, buildDir)
	logf, err := os.Create(filepath.Join(root, buildDir, "skynetd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child keeps its own descriptor
	// stdout is the per-incident report stream: not part of the feed.
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start skynetd: %w", err)
	}
	d := &daemon{cmd: cmd, tcp: tcp, udp: udp, httpAddr: httpAddr,
		client: &http.Client{Timeout: 5 * time.Second}, done: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.client.Get("http://" + httpAddr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("skynetd exited during boot: %v (see %s/skynetd.log)", d.waitErr, buildDir)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("skynetd did not answer /healthz within 30 s")
		}
	}
}

// stop asks skynetd to shut down, kills it if it does not, and returns
// once the process has ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// peakRSSMB is the daemon's resident-set high-water mark, VmHWM of
// /proc/<pid>/status, read while it still runs. (wait4's ru_maxrss is
// the same mark but starts from the forking parent's own resident set,
// so it reports the benchmark's memory whenever that is the larger.)
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuSeconds is the daemon's user+system CPU so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name, field 2, may hold spaces; fields count from
	// after its closing parenthesis.
	i := strings.LastIndexByte(string(raw), ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", raw)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", raw)
	}
	const clockTick = 100
	return (utime + stime) / clockTick, nil
}

// daemonStats is the part of /api/stats the checks read.
type daemonStats struct {
	RawIngested       int `json:"raw_ingested"`
	ActiveIncidents   int `json:"active_incidents"`
	AlertsAccepted    int `json:"alerts_accepted"`
	AlertsRejected    int `json:"alerts_rejected"`
	QueueHighWater    int `json:"queue_high_water"`
	RejectedQueueFull int `json:"rejected_queue_full"`
}

func (d *daemon) stats() (daemonStats, error) {
	var st daemonStats
	resp, err := d.client.Get("http://" + d.httpAddr + "/api/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/api/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
