package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
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

// daemon is one vitdynd process started by the benchmark, listening on
// an ephemeral loopback port.
type daemon struct {
	cmd  *exec.Cmd
	port int
	log  *os.File // the daemon's stderr (access log)

	mu      sync.Mutex
	stdout  []string
	outDone chan struct{}
}

// startDaemon execs bin with args plus an ephemeral -addr and returns
// once the daemon has printed its listening line and answered /healthz.
// The daemon's stderr goes to a file in dir.
func startDaemon(bin, dir string, args ...string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(dir, "vitdynd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = logf
	// A benchmark killed mid-run takes its daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting vitdynd: %w", err)
	}
	d := &daemon{cmd: cmd, log: logf, outDone: make(chan struct{})}
	listening := make(chan string, 1)
	go func() {
		defer close(d.outDone)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stdout = append(d.stdout, line)
			d.mu.Unlock()
			if addr, ok := strings.CutPrefix(line, "vitdynd: listening on "); ok {
				select {
				case listening <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-listening:
		_, port, _ := strings.Cut(addr, "127.0.0.1:")
		if d.port, err = strconv.Atoi(port); err != nil {
			d.kill()
			return nil, fmt.Errorf("vitdynd listening on unexpected address %q", addr)
		}
	case <-d.outDone:
		d.kill()
		return nil, fmt.Errorf("vitdynd exited before listening; stdout %q", d.lines())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("vitdynd did not print its listening line within 30s")
	}
	if err := d.waitHealthy(10 * time.Second); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

func (d *daemon) url(path string) string {
	return "http://127.0.0.1:" + strconv.Itoa(d.port) + path
}

func (d *daemon) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := control.Get(d.url("/healthz"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("vitdynd /healthz not 200 within %v (last error %v)", limit, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) lines() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.stdout...)
}

// stop sends SIGTERM, waits for the process to exit, and checks that it
// shut down cleanly: exit status 0 and the "shut down; cost store
// served" line on stdout.
func (d *daemon) stop() error {
	defer d.log.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signalling vitdynd: %w", err)
	}
	exited := make(chan error, 1)
	go func() {
		<-d.outDone
		exited <- d.cmd.Wait()
	}()
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("vitdynd exited uncleanly after SIGTERM: %w", err)
		}
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-exited
		return errors.New("vitdynd did not exit within 60s of SIGTERM")
	}
	for _, l := range d.lines() {
		if strings.HasPrefix(l, "vitdynd: shut down; cost store served ") {
			return nil
		}
	}
	return fmt.Errorf("vitdynd shut down without its cost-store summary line; stdout %q", d.lines())
}

// kill stops a daemon that failed to start; errors are moot by then.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.outDone
	d.cmd.Wait()
	d.log.Close()
}

// cpu returns the daemon's user+system CPU time so far, from
// /proc/<pid>/stat (clock ticks of 10 ms).
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", b)
	}
	var ticks int64
	for _, s := range f[11:13] { // utime, stime
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	const userHZ = 100
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// peakRSS returns the daemon's VmHWM in MB.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// statsz fetches and decodes the daemon's /statsz stream section.
func (d *daemon) streamCounters(ctx context.Context) (streamCounters, error) {
	var st struct {
		Stream streamCounters `json:"stream"`
	}
	err := getJSON(ctx, d.url("/statsz"), &st)
	return st.Stream, err
}

// streamCounters is the /statsz stream section the traced run must
// reproduce.
type streamCounters struct {
	Generated   int64 `json:"generated"`
	Prefiltered int64 `json:"prefiltered"`
	Costed      int64 `json:"costed"`
	Admitted    int64 `json:"admitted"`
}

// hostSteal returns the machine's cumulative steal time: CPU time the
// hypervisor gave to other guests while this one's vCPUs were ready to
// run (the eighth value of /proc/stat's cpu line, in 10 ms ticks).
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}
