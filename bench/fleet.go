package main

import (
	"bufio"
	"bytes"
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

	"blackboxflow/internal/jobs"
)

// binaries are the server programs under test, built from this checkout.
type binaries struct {
	Serve, Worker string
	BuildSecs     float64
}

// buildBinaries compiles flowserve and flowworker into dir. The time is
// reported as build_s and is diagnostic only: it measures the build cache.
func buildBinaries(root, dir string) (*binaries, error) {
	start := time.Now()
	b := &binaries{Serve: filepath.Join(dir, "flowserve"), Worker: filepath.Join(dir, "flowworker")}
	for out, pkg := range map[string]string{b.Serve: "./cmd/flowserve", b.Worker: "./cmd/flowworker"} {
		cmd := exec.Command("go", "build", "-o", out, pkg)
		cmd.Dir = root
		if msg, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("go build %s: %v\n%s", pkg, err, msg)
		}
	}
	b.BuildSecs = time.Since(start).Seconds()
	return b, nil
}

// fleet is one running flowserve with its flowworkers. Every workload gets
// a fresh one so caches and set-up cost never leak between workloads.
type fleet struct {
	base    string // http://host:port of flowserve
	serve   *exec.Cmd
	workers []*exec.Cmd
	dir     string   // private temp/spill directory, removed by stop
	log     *os.File // the processes' shared stderr, inside dir
}

// startFleet launches the workload's processes and returns once flowserve
// answers /healthz. scratch must be inside the checkout.
func startFleet(bins *binaries, w *workload, scratch string) (*fleet, error) {
	dir, err := os.MkdirTemp(scratch, "fleet-*")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	// A file, not a buffer: three processes append to it without the
	// copying goroutines a shared in-memory writer would need.
	if f.log, err = os.OpenFile(filepath.Join(dir, "stderr.log"), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o600); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			f.stop()
		}
	}()

	var addrs []string
	for i := 0; i < w.Workers; i++ {
		cmd := exec.Command(bins.Worker, "-listen", "127.0.0.1:0")
		cmd.Stderr = f.log
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start flowworker: %w", err)
		}
		f.workers = append(f.workers, cmd)
		// The worker's first stdout line is its resolved listen address.
		line, err := bufio.NewReader(stdout).ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("flowworker printed no address: %w", err)
		}
		addrs = append(addrs, strings.TrimSpace(line))
	}

	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-addr", addr,
		"-max-concurrent", strconv.Itoa(serverSlots),
		"-dop", strconv.Itoa(serverDOP),
		"-spill-dir", dir,
		// The registry keeps a finished job's inputs and output until it is
		// evicted. Capping it at the warm-up's job count puts the server's
		// heap at its steady state when the window opens; the default (4096
		// jobs, 15 min) would grow it through any window this short.
		"-max-jobs", strconv.Itoa(clients * warmupPerConn),
	}
	if len(addrs) > 0 {
		args = append(args, "-workers", strings.Join(addrs, ","), "-local-slots", "0")
	}
	f.serve = exec.Command(bins.Serve, args...)
	f.serve.Stderr = f.log
	if err := f.serve.Start(); err != nil {
		return nil, fmt.Errorf("start flowserve: %w", err)
	}
	f.base = "http://" + addr

	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(f.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("flowserve not healthy after 20s: %v\n%s", err, f.logTail())
		}
		time.Sleep(5 * time.Millisecond)
	}
	ok = true
	return f, nil
}

// logTail returns the end of the processes' stderr, for error reports.
func (f *fleet) logTail() string {
	raw, err := os.ReadFile(f.log.Name())
	if err != nil {
		return err.Error()
	}
	if len(raw) > 4096 {
		raw = raw[len(raw)-4096:]
	}
	return string(raw)
}

// freeAddr picks a loopback port the kernel reports free. flowserve logs
// but does not print its resolved address, so ":0" cannot be used for it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// stop terminates every process, waits for each, and removes the fleet's
// directory. It reports a process that had to be killed.
func (f *fleet) stop() error {
	var errs []error
	cmds := append([]*exec.Cmd{f.serve}, f.workers...)
	for _, cmd := range cmds {
		if cmd != nil && cmd.Process != nil {
			cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	for _, cmd := range cmds {
		if cmd == nil || cmd.Process == nil {
			continue
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
			errs = append(errs, fmt.Errorf("%s ignored SIGTERM for 10s and was killed", filepath.Base(cmd.Path)))
		}
	}
	f.log.Close()
	if err := os.RemoveAll(f.dir); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// pids lists the server-side processes whose CPU the benchmark accounts.
func (f *fleet) pids() []int {
	pids := []int{f.serve.Process.Pid}
	for _, w := range f.workers {
		pids = append(pids, w.Process.Pid)
	}
	return pids
}

// clockTick is the kernel's USER_HZ; it is 100 on every Linux port Go runs on.
const clockTick = 100

// cpuMillis sums user+system CPU time of the fleet's processes.
func (f *fleet) cpuMillis() (float64, error) {
	var ticks int64
	for _, pid := range f.pids() {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return 0, err
		}
		// The command name may hold spaces; fields are counted after its ")".
		rest := string(raw[bytes.LastIndexByte(raw, ')')+1:])
		fields := strings.Fields(rest)
		if len(fields) < 13 {
			return 0, fmt.Errorf("short /proc/%d/stat", pid)
		}
		for _, s := range fields[11:13] { // utime, stime (fields 14 and 15)
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return 0, err
			}
			ticks += n
		}
	}
	return float64(ticks) * 1000 / clockTick, nil
}

// peakRSSMB reads flowserve's resident-set high-water mark.
func (f *fleet) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", f.serve.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(v)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// getJSON decodes a GET response of the server into v.
func (f *fleet) getJSON(c *http.Client, path string, v any) error {
	resp, err := c.Get(f.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// metrics fetches the scheduler's counters.
func (f *fleet) metrics() (jobs.Metrics, error) {
	var m jobs.Metrics
	err := f.getJSON(http.DefaultClient, "/metrics", &m)
	return m, err
}
