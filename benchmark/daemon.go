package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// readyTimeout bounds how long a daemon may take to answer /readyz before
// the run fails instead of hanging.
const readyTimeout = 20 * time.Second

// daemon is one spawned bufferdbd.
type daemon struct {
	name string
	cmd  *exec.Cmd
	wire string // wire-protocol address
	http string // sidecar address
	// stderr is kept, not shown: it is printed only when the run fails.
	stderr bytes.Buffer
	exited chan struct{}
}

// fleet is the set of daemons serving one workload, all in one process
// group so one kill reaches every one of them.
type fleet struct {
	spec    fleetSpec
	bin     string
	dataDir string
	daemons []*daemon
	pgid    int
}

// live tracks fleets and scratch directories for the exit paths (normal
// return, interrupt, panic), which must leave no process or file behind.
var live struct {
	sync.Mutex
	fleets map[*fleet]bool
	dirs   map[string]bool
}

func cleanupAll() {
	live.Lock()
	defer live.Unlock()
	for f := range live.fleets {
		f.kill()
	}
	for d := range live.dirs {
		os.RemoveAll(d)
	}
	live.fleets, live.dirs = nil, nil
}

// scratchDir makes a directory under the checkout's build directory; the
// benchmark writes nowhere else.
func scratchDir(root, pattern string) (string, error) {
	base := filepath.Join(root, buildDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, pattern)
	if err != nil {
		return "", err
	}
	live.Lock()
	if live.dirs == nil {
		live.dirs = map[string]bool{}
	}
	live.dirs[dir] = true
	live.Unlock()
	return dir, nil
}

func removeScratch(dir string) {
	if dir == "" {
		return
	}
	os.RemoveAll(dir)
	live.Lock()
	delete(live.dirs, dir)
	live.Unlock()
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// bootFleet spawns the workload's daemons and waits until each is ready.
// dataDir is reused when it already holds a database (the recovery check).
// A fleet that fails to come up is killed and its stderr joins the error.
func bootFleet(bin string, spec fleetSpec, dataDir string) (*fleet, error) {
	f := &fleet{spec: spec, bin: bin, dataDir: dataDir}
	live.Lock()
	if live.fleets == nil {
		live.fleets = map[*fleet]bool{}
	}
	live.fleets[f] = true
	live.Unlock()
	if err := f.boot(); err != nil {
		f.close()
		return nil, fmt.Errorf("%w\n%s", err, f.stderrAll())
	}
	return f, nil
}

func (f *fleet) boot() error {
	spec, dataDir := f.spec, f.dataDir

	base := []string{"-scale", strconv.FormatFloat(scaleFactor, 'g', -1, 64)}
	if spec.caches {
		base = append(base, "-result-cache", "8388608", "-reuse-cache")
	}
	if spec.paged {
		base = append(base, "-data-dir", dataDir, "-pool-bytes", "2097152")
	}
	if spec.shards == 0 {
		if err := f.spawn("bufferdbd", base); err != nil {
			return err
		}
		return f.awaitReady()
	}
	var addrs []string
	for i := 0; i < spec.shards; i++ {
		args := append(append([]string{}, base...), "-shard-index", strconv.Itoa(i),
			"-shard-count", strconv.Itoa(spec.shards), "-replication", "2")
		if err := f.spawn(fmt.Sprintf("shard%d", i), args); err != nil {
			return err
		}
		addrs = append(addrs, f.daemons[i].wire)
	}
	// The coordinator dials its shards at start-up, so they come up first.
	if err := f.awaitReady(); err != nil {
		return err
	}
	if err := f.spawn("coordinator", []string{"-shards", strings.Join(addrs, ","), "-replication", "2"}); err != nil {
		return err
	}
	return f.awaitReady()
}

// front is the daemon clients talk to: the coordinator of a sharded fleet,
// else the only daemon.
func (f *fleet) front() *daemon { return f.daemons[len(f.daemons)-1] }

func (f *fleet) spawn(name string, args []string) error {
	wire, err := freeAddr()
	if err != nil {
		return err
	}
	httpAddr, err := freeAddr()
	if err != nil {
		return err
	}
	d := &daemon{name: name, wire: wire, http: httpAddr, exited: make(chan struct{})}
	d.cmd = exec.Command(f.bin, append([]string{"-listen", wire, "-http", httpAddr}, args...)...)
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(f.spec.gomaxprocs))
	d.cmd.Stderr = &d.stderr
	// One process group per fleet (led by its first daemon), and a kernel
	// death signal in case this process is killed before it can clean up.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pgid: f.pgid, Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", name, err)
	}
	if f.pgid == 0 {
		f.pgid = d.cmd.Process.Pid
	}
	go func() {
		_ = d.cmd.Wait() // the exit status of a killed daemon is not news
		close(d.exited)
	}()
	f.daemons = append(f.daemons, d)
	return nil
}

// awaitReady polls every daemon's /readyz. A daemon that exits or stays
// unready past readyTimeout fails the run.
func (f *fleet) awaitReady() error {
	deadline := time.Now().Add(readyTimeout)
	for _, d := range f.daemons {
		for {
			resp, err := http.Get("http://" + d.http + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case <-d.exited:
				return fmt.Errorf("%s exited before it was ready", d.name)
			default:
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready within %v", d.name, readyTimeout)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

// kill SIGKILLs the whole process group and waits for every daemon to be
// reaped. It is idempotent.
func (f *fleet) kill() {
	if f.pgid != 0 {
		_ = syscall.Kill(-f.pgid, syscall.SIGKILL) // already-dead group: nothing to do
	}
	for _, d := range f.daemons {
		<-d.exited
	}
}

// close kills the fleet and forgets it.
func (f *fleet) close() {
	f.kill()
	live.Lock()
	delete(live.fleets, f)
	live.Unlock()
}

// stderrAll kills the fleet, so that no daemon is still writing, and joins
// every daemon's retained stderr for a failure report.
func (f *fleet) stderrAll() string {
	f.kill()
	var b strings.Builder
	for _, d := range f.daemons {
		fmt.Fprintf(&b, "--- %s stderr ---\n%s", d.name, d.stderr.String())
	}
	return b.String()
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTick = 10 * time.Millisecond

// cpuMS returns utime+stime of one daemon in milliseconds.
func (d *daemon) cpuMS() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(raw))
}

// parseStatCPU reads fields 14 and 15 of a /proc/<pid>/stat line. The comm
// field may hold spaces and parentheses, so fields are counted from the last
// ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	fields := strings.Fields(stat[i+1:])
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("malformed /proc stat line %q", stat)
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times in %q", stat)
	}
	return float64(utime+stime) * float64(clockTick/time.Millisecond), nil
}

// rssWindow is how long one resident-set window lasts. A timed phase holds
// about a thousand, so the 95th percentile keeps its ten samples beyond even
// when the program gets several times faster and the phase that much shorter.
const rssWindow = 20 * time.Millisecond

// rssWatch records every daemon's peak resident set window by window while
// the timed phase runs. A window's peak is the kernel's own high-water mark
// (VmHWM), read and then reset (/proc/<pid>/clear_refs, value 5) when the
// window ends, so a spike between two reads cannot be missed.
type rssWatch struct {
	stop, done chan struct{}
	halted     sync.Once
	mb         [][]float64 // per daemon, one peak per window
	err        error
}

// watchRSS discards the high-water marks of start-up, when a daemon
// generates and loads its data, and starts the windows; halt (or peak) ends
// them.
func (f *fleet) watchRSS() (*rssWatch, error) {
	for _, d := range f.daemons {
		if err := d.resetVmHWM(); err != nil {
			return nil, err
		}
	}
	s := &rssWatch{stop: make(chan struct{}), done: make(chan struct{}), mb: make([][]float64, len(f.daemons))}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssWindow)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				for i, d := range f.daemons {
					mb, err := d.vmHWM()
					if err == nil {
						err = d.resetVmHWM()
					}
					if err != nil {
						s.err = err
						return
					}
					s.mb[i] = append(s.mb[i], mb)
				}
			}
		}
	}()
	return s, nil
}

// halt stops the watching goroutine and waits for it. It is idempotent.
func (s *rssWatch) halt() {
	s.halted.Do(func() {
		close(s.stop)
		<-s.done
	})
}

// peak stops the watch and returns the fleet's peak resident set twice over,
// each summed over the daemons: the 95th percentile of the window peaks,
// which is peak_rss_mb, and their maximum, which is printed beside it. The
// maximum is one sample of the largest of a few thousand collection cycles:
// over ten same-code runs of paged_mixed its quartile distance was 18–33 %
// of the median. The 95th percentile is the same peak with ten windows
// beyond it, and repeats to 5–6 %.
func (s *rssWatch) peak() (p95, highest float64, err error) {
	s.halt()
	if s.err != nil {
		return 0, 0, s.err
	}
	for _, mb := range s.mb {
		p, err := percentile(mb, 95)
		if err != nil {
			return 0, 0, fmt.Errorf("resident-set windows of %v (raise --seconds if the timed phase was too short to hold enough): %w", rssWindow, err)
		}
		p95 += p
		highest += slices.Max(mb)
	}
	return p95, highest, nil
}

func (d *daemon) resetVmHWM() error {
	if err := os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", d.cmd.Process.Pid), []byte("5"), 0); err != nil {
		return fmt.Errorf("reset VmHWM of %s: %w", d.name, err)
	}
	return nil
}

// vmHWM reads the daemon's resident-set high-water mark, in MB.
func (d *daemon) vmHWM() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(string(raw))
	if err != nil {
		return 0, fmt.Errorf("%s: %w", d.name, err)
	}
	return kb / 1024, nil
}

// parseVmHWM reads the VmHWM line of a /proc/<pid>/status file, in kB.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 2 && fields[1] == "kB" {
				return strconv.ParseFloat(fields[0], 64)
			}
			break
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrape reads the daemon's /metrics into a map keyed by the full series
// name, labels included.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + d.http + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: %s", d.name, resp.Status)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
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
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumPrefix adds up every series whose name starts with prefix (one counter
// across its label values).
func sumPrefix(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}
