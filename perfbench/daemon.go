package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// daemon is one brsmnd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// freePort reserves an ephemeral loopback port and releases it for the
// daemon to bind.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

func startDaemon(bin string, port int, extra []string, logPath string) (*daemon, error) {
	args := append([]string{
		"-addr", "127.0.0.1:" + strconv.Itoa(port),
		"-n", strconv.Itoa(netN),
		"-shards", "1",
		"-epoch", "250ms",
		"-epoch-threshold", "64",
		"-backend", "brsmn",
	}, extra...)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start brsmnd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://127.0.0.1:" + strconv.Itoa(port), exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	return d, nil
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(ctx context.Context) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("brsmnd %s exited before ready: %v", d.base, d.err)
		case <-ctx.Done():
			return fmt.Errorf("brsmnd %s not ready: %w", d.base, ctx.Err())
		default:
		}
		if resp, err := hc.Get(d.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM and waits for exit, killing after a grace period.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpuTicks reads user+system CPU of the process in clock ticks.
func (d *daemon) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat times")
	}
	return u + st, nil
}

// peakRSSKiB reads VmHWM.
func (d *daemon) peakRSSKiB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.Fields(v)[0], 10, 64)
		}
	}
	return 0, errors.New("no VmHWM")
}

// fleet is one workload's set of daemons.
type fleet struct {
	bin     string
	dir     string // per-setup directory: logs and data
	sp      *spec
	ports   []int
	daemons []*daemon
}

func (f *fleet) bases() []string {
	var out []string
	for _, d := range f.daemons {
		out = append(out, d.base)
	}
	return out
}

func (f *fleet) args(i int) []string {
	var extra []string
	if f.sp.durable {
		extra = append(extra, "-data-dir", filepath.Join(f.dir, "data"), "-fsync-batch", "8")
	}
	if len(f.ports) > 1 {
		var peers []string
		for k, p := range f.ports {
			peers = append(peers, fmt.Sprintf("n%d=http://127.0.0.1:%d", k, p))
		}
		extra = append(extra, "-node-id", fmt.Sprintf("n%d", i), "-peers", strings.Join(peers, ","))
	}
	return extra
}

// start boots every daemon on fresh ports and waits until all are ready.
func (f *fleet) start(ctx context.Context) error {
	if f.ports == nil {
		for i := 0; i < f.sp.nodes; i++ {
			p, err := freePort()
			if err != nil {
				return err
			}
			f.ports = append(f.ports, p)
		}
	}
	f.daemons = nil
	for i, p := range f.ports {
		d, err := startDaemon(f.bin, p, f.args(i), filepath.Join(f.dir, fmt.Sprintf("brsmnd-%d-%d.log", i, time.Now().UnixNano())))
		if err != nil {
			return err
		}
		f.daemons = append(f.daemons, d)
	}
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for _, d := range f.daemons {
		if err := d.waitReady(rctx); err != nil {
			return err
		}
	}
	return nil
}

func (f *fleet) stop() {
	for _, d := range f.daemons {
		d.stop()
	}
}

// populate creates every group of the model, round-robin over targets.
func populate(bases []string, groups []*groupModel) error {
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	for i, g := range groups {
		members := make([]int, len(g.initial))
		for k, d := range g.initial {
			members[k] = int(d)
		}
		body, _ := json.Marshal(map[string]any{"id": g.id, "source": g.source, "members": members})
		resp, err := hc.Post(bases[i%len(bases)]+"/v1/groups", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("create %s: %w", g.id, err)
		}
		rb, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			return fmt.Errorf("create %s: HTTP %d %s", g.id, resp.StatusCode, firstLine(rb))
		}
	}
	return nil
}
