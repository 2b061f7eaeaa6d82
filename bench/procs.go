package main

import (
	"bufio"
	"bytes"
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
	"time"
)

// This file owns the child processes: building the real cmd/qr2server
// and cmd/wdbserver binaries, launching them on free loopback ports,
// waiting for /healthz, reading their /proc accounting, and killing and
// reaping them on every exit path.

// binaries are the paths of the built server binaries.
type binaries struct{ qr2server, wdbserver string }

// buildBinaries compiles both servers from the source tree at root into
// dir and reports how long that took (build time is reported, never
// counted as set-up).
func buildBinaries(root, dir string) (binaries, time.Duration, error) {
	began := time.Now()
	abs, err := filepath.Abs(dir)
	if err != nil {
		return binaries{}, 0, err
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return binaries{}, 0, err
	}
	cmd := exec.Command("go", "build", "-o", abs+string(os.PathSeparator), "./cmd/qr2server", "./cmd/wdbserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, 0, fmt.Errorf("go build servers: %v\n%s", err, out)
	}
	return binaries{
		qr2server: filepath.Join(abs, "qr2server"),
		wdbserver: filepath.Join(abs, "wdbserver"),
	}, time.Since(began), nil
}

// freeAddr picks a loopback address whose port was free a moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// child is one launched server process.
type child struct {
	name   string
	addr   string
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{} // closed once Wait has returned
}

func (c *child) url() string { return "http://" + c.addr }
func (c *child) pid() int    { return c.cmd.Process.Pid }

// startChild launches bin with args, its stdout and stderr going to
// logDir/<name>.log.
func startChild(name, bin, addr, logDir string, args ...string) (*child, error) {
	f, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = f, f
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, addr: addr, cmd: cmd, log: f, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a killed child reports its signal; the exit is what matters
		close(c.exited)
	}()
	return c, nil
}

// stop kills the child and returns once it has been reaped.
func (c *child) stop() {
	_ = c.cmd.Process.Kill() // already-exited is fine
	<-c.exited
	c.log.Close()
}

// waitHealthy polls GET /healthz until it answers 200, the child dies or
// ctx ends.
func (c *child) waitHealthy(ctx context.Context) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url()+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-c.exited:
			return fmt.Errorf("%s exited before becoming healthy (see %s)", c.name, c.log.Name())
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %w", c.name, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// fleet is one round's set of children: a wdbserver per source and one
// or three qr2server replicas.
type fleet struct {
	wdbs []*child
	qr2s []*child
}

// live tracks every running fleet so a signal handler can stop them.
var live struct {
	sync.Mutex
	fleets map[*fleet]bool
}

// stopAllFleets kills and reaps every child of every live fleet.
func stopAllFleets() {
	live.Lock()
	var fs []*fleet
	for f := range live.fleets {
		fs = append(fs, f)
	}
	live.Unlock()
	for _, f := range fs {
		f.stop()
	}
}

// launchFleet starts the children a workload needs and waits until every
// one answers /healthz. On any failure everything started so far is
// stopped.
func launchFleet(ctx context.Context, spec *Spec, bins binaries, logDir string) (_ *fleet, err error) {
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{}
	live.Lock()
	if live.fleets == nil {
		live.fleets = map[*fleet]bool{}
	}
	live.fleets[f] = true
	live.Unlock()
	defer func() {
		if err != nil {
			f.stop()
		}
	}()

	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	var remotes []string
	for i, source := range sourceNames {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		c, err := startChild("wdbserver-"+source, bins.wdbserver, addr, logDir,
			"-source", source, "-n", strconv.Itoa(catalogN), "-seed", strconv.Itoa(catalogSeed+i),
			"-k", strconv.Itoa(systemK), "-latency", webLatency.String())
		if err != nil {
			return nil, err
		}
		f.wdbs = append(f.wdbs, c)
		remotes = append(remotes, source+"="+c.url())
	}
	for _, c := range f.wdbs {
		if err := c.waitHealthy(ctx); err != nil {
			return nil, err
		}
	}

	ids := []string{"a", "b", "c"}[:spec.Replicas]
	addrs := make([]string, len(ids))
	var peers []string
	for i, id := range ids {
		if addrs[i], err = freeAddr(); err != nil {
			return nil, err
		}
		peers = append(peers, id+"=http://"+addrs[i])
	}
	for i, id := range ids {
		args := []string{"-sources=", "-remote", strings.Join(remotes, ",")}
		if spec.CacheBytes > 0 {
			args = append(args, "-cache-bytes", strconv.FormatInt(spec.CacheBytes, 10))
		}
		if len(ids) > 1 {
			args = append(args, "-self", id, "-peers", strings.Join(peers, ","))
		}
		c, err := startChild("qr2server-"+id, bins.qr2server, addrs[i], logDir, args...)
		if err != nil {
			return nil, err
		}
		f.qr2s = append(f.qr2s, c)
	}
	for _, c := range f.qr2s {
		if err := c.waitHealthy(ctx); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// stop kills and reaps every child. Safe to call more than once.
func (f *fleet) stop() {
	live.Lock()
	running := live.fleets[f]
	delete(live.fleets, f)
	live.Unlock()
	if !running {
		return
	}
	for _, c := range append(f.qr2s, f.wdbs...) {
		c.stop()
	}
}

// procSample is one reading of a process's kernel accounting.
type procSample struct {
	userUs, sysUs float64
	hwmMiB        float64
}

// clockTick is the kernel's USER_HZ; it is 100 on every Linux platform
// Go supports.
const clockTick = 100

// parseProcStat extracts utime and stime (fields 14 and 15) from the
// text of /proc/<pid>/stat. The command name (field 2) is parenthesised
// and may itself contain spaces and parentheses, so fields are counted
// from the last ')'.
func parseProcStat(stat string) (userUs, sysUs float64, err error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	fields := strings.Fields(stat[i+1:])
	// fields[0] is field 3 (state), so utime and stime are fields[11], [12].
	if len(fields) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after command", len(fields))
	}
	ut, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	st, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	const usPerTick = 1e6 / clockTick
	return float64(ut) * usPerTick, float64(st) * usPerTick, nil
}

// parseVmHWM extracts the peak resident set size in MiB from the text of
// /proc/<pid>/status.
func parseVmHWM(status string) (float64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("proc status: unexpected VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// readProc samples pid's CPU time and peak RSS.
func readProc(pid int) (procSample, error) {
	dir := "/proc/" + strconv.Itoa(pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return procSample{}, err
	}
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return procSample{}, err
	}
	var s procSample
	if s.userUs, s.sysUs, err = parseProcStat(string(bytes.TrimSpace(stat))); err != nil {
		return procSample{}, err
	}
	if s.hwmMiB, err = parseVmHWM(string(status)); err != nil {
		return procSample{}, err
	}
	return s, nil
}

// readProcs sums the samples of several children.
func readProcs(cs []*child) (procSample, error) {
	var sum procSample
	for _, c := range cs {
		s, err := readProc(c.pid())
		if err != nil {
			return procSample{}, fmt.Errorf("%s: %w", c.name, err)
		}
		sum.userUs += s.userUs
		sum.sysUs += s.sysUs
		sum.hwmMiB += s.hwmMiB
	}
	return sum, nil
}
