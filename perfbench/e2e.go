package main

// The end-to-end run: the real termcheckd, termcheck and chase binaries,
// driven as closed loops (each client sends its next operation only after
// the previous one completed) and timed from outside.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"airct/internal/serve"
)

// servedClients is the closed-loop client count of the served workloads.
// On the 2-CPU reference host a second client saturates both CPUs (the
// daemon's two analyses plus the client's own HTTP work) and run-to-run
// spreads grow from 2-4% to 11-17%: the numbers then measure the
// scheduler, not the program (WORKLOADS.md).
const servedClients = 1

// env is what every phase of a run shares.
type env struct {
	bin    string // directory holding termcheckd, termcheck and chase
	work   string // scratch directory inside the checkout
	client *http.Client
}

func newEnv(bin, work string) *env {
	return &env{
		bin:  bin,
		work: work,
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: servedClients, DisableCompression: true},
		},
	}
}

// daemon is one running termcheckd.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr *syncBuffer
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// syncBuffer is a bytes.Buffer safe for the exec copier and a reader.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listeningRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon launches termcheckd on a free loopback port and returns once
// /healthz answers.
func (e *env) startDaemon(args ...string) (*daemon, error) {
	cmd := exec.Command(filepath.Join(e.bin, "termcheckd"), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	var stdout syncBuffer
	d := &daemon{cmd: cmd, stderr: &syncBuffer{}, exited: make(chan struct{})}
	cmd.Stdout = &stdout
	cmd.Stderr = d.stderr
	// Should the benchmark die, the kernel kills the daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start termcheckd: %w", err)
	}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for d.addr == "" {
		if m := listeningRE.FindStringSubmatch(stdout.String()); m != nil {
			d.addr = m[1]
			break
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("termcheckd exited during start-up (%v): %s", d.err, d.stderr)
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("termcheckd did not report its address within 30s")
		}
	}
	resp, err := e.client.Get("http://" + d.addr + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("termcheckd /healthz: %w", err)
	}
	return d, nil
}

// stop shuts the daemon down gracefully (SIGTERM: drain, final snapshot)
// and waits for it; anything but exit 0 is an error.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		select {
		case <-d.exited:
		default:
			return fmt.Errorf("signal termcheckd: %w", err)
		}
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("termcheckd did not exit within 30s of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("termcheckd: %v: %s", d.err, d.stderr)
	}
	return nil
}

// kill stops the daemon at once and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only when the process is already gone
	<-d.exited
}

// cpu is the user+system CPU time the daemon used over its life; valid
// once it has exited.
func (d *daemon) cpu() time.Duration { return childCPU(d.cmd.ProcessState) }

// childCPU is an exited child's user+system CPU time from its rusage. The
// kernel keeps their sum to the nanosecond, unlike /proc/<pid>/stat's
// 10 ms ticks, so a few milliseconds of start-up read true.
func childCPU(ps *os.ProcessState) time.Duration {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// procCPU reads a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3;
	// utime and stime are fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procHWM reads a process's peak resident set (VmHWM) in MB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// sample is one completed operation.
type sample struct {
	lat time.Duration // send to full response, or process start to exit
	at  time.Duration // completion, since the timed phase began
	cpu time.Duration // the child's user+system CPU (CLI operations)
}

// tally collects a phase's operation outcomes. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	samples   []sample
	byClass   map[string][]time.Duration
	attempted int
	failures  []string
}

func newTally() *tally { return &tally{byClass: map[string][]time.Duration{}} }

// record tallies one operation and returns how many have completed.
func (t *tally) record(o *op, s sample, err error) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failures = append(t.failures, fmt.Sprintf("seq %d %s/%s: %v", o.Seq, o.Kind, o.Class, err))
		return len(t.samples)
	}
	t.samples = append(t.samples, s)
	key := o.Kind.String() + "/" + o.Class
	t.byClass[key] = append(t.byClass[key], s.lat)
	return len(t.samples)
}

// fail records a failure outside any timed operation (set-up checks).
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
}

// requestBody renders a served operation's wire request.
func requestBody(o *op) (path string, body []byte, err error) {
	switch o.Kind {
	case kindDecide, kindPortfolio:
		body, err = json.Marshal(serve.DecideRequest{Program: o.Program, Portfolio: o.Kind == kindPortfolio})
		return "/v1/decide", body, err
	case kindExists:
		body, err = json.Marshal(serve.ExistsRequest{Program: o.Program})
		return "/v1/exists", body, err
	}
	return "", nil, fmt.Errorf("%s is not a served operation", o.Kind)
}

// checkResponse compares a served response with the expected answer.
func checkResponse(o *op, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	// encoding/json writes fields in struct order, so a correct answer
	// starts with exactly this; the client checks it without decoding the
	// whole body, keeping its own CPU use out of the daemon's way.
	want := `{"verdict":"` + o.Verdict + `",`
	if o.Kind == kindExists {
		want += `"states":` + strconv.Itoa(o.States) + ","
	}
	if bytes.HasPrefix(body, []byte(want)) {
		return nil
	}
	if o.Kind == kindExists {
		var r serve.ExistsResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("decode response: %w", err)
		}
		if r.Verdict != o.Verdict || r.States != o.States {
			return fmt.Errorf("got verdict %s with %d states, want %s with %d", r.Verdict, r.States, o.Verdict, o.States)
		}
		return fmt.Errorf("unexpected response %.200s", body)
	}
	var r serve.DecideResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if r.Verdict != o.Verdict {
		return fmt.Errorf("got verdict %s, want %s", r.Verdict, o.Verdict)
	}
	return fmt.Errorf("unexpected response %.200s", body)
}

// post sends one served operation and returns its latency — from send to
// the full response body — and the checked outcome.
func (e *env) post(addr string, o *op) (time.Duration, error) {
	path, body, err := requestBody(o)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := e.client.Post("http://"+addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return 0, err
	}
	return lat, checkResponse(o, resp.StatusCode, out)
}

// opSource hands out the sequence in order to concurrent clients.
type opSource struct {
	g    *generator
	ops  []op // pre-generated prefix
	next atomic.Int64
}

func (s *opSource) take() op {
	i := int(s.next.Add(1) - 1)
	if i < len(s.ops) {
		return s.ops[i]
	}
	return s.g.op(i)
}

// rssOpsPerSecond sets how many requests a served workload completes
// before the daemon's peak RSS is read: this many per second of the timed
// phase (3000 and 10000 in a 30 s run). A fixed amount of work makes the
// reading independent of speed: the cold daemon's cache grows with every
// request, so a peak read at the deadline would grow with throughput. Both
// rates are below the slowest raw throughput seen under heavy steal (144
// and 622 requests per second).
var rssOpsPerSecond = map[string]int{"cold-decide": 100, "warm-replay": 333}

// servedLoop runs the closed loop against the daemon for dur. It records
// the wall time from the first send to the last completion, the window
// marks, and the daemon's peak RSS once rssAt requests have completed.
func (e *env) servedLoop(d *daemon, src *opSource, dur time.Duration, rssAt int, res *e2eResult) {
	pid := d.cmd.Process.Pid
	t := res.tally
	var rssOnce sync.Once
	start := time.Now()
	finish := startMarks(start, dur, pid)
	var wg sync.WaitGroup
	for c := 0; c < servedClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				o := src.take()
				lat, err := e.post(d.addr, &o)
				if t.record(&o, sample{lat: lat, at: time.Since(start)}, err) == rssAt {
					rssOnce.Do(func() { res.rssMB, res.rssErr = procHWM(pid) })
				}
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.marks = finish()
}

// marks are readings taken at the window boundaries of a timed phase:
// index k is the start of window k, index windows the end of the phase.
type marks struct {
	cpu   []time.Duration // the daemon's CPU time (served workloads)
	busy  []int64         // the host's busy CPU ticks
	steal []int64         // the host's stolen CPU ticks
	err   error
}

// stealShare is the share of busy CPU time the hypervisor stole between
// marks i and j.
func (m *marks) stealShare(i, j int) float64 {
	return stealShare(m.busy[j]-m.busy[i], m.steal[j]-m.steal[i])
}

// minShareTicks is the fewest busy+stolen ticks (10 ms each) a steal share
// is computed over. The windows of a very short run span a tick or two,
// too coarse a share to divide out, so it reads as 0 and the wall time
// stands.
const minShareTicks = 20

// stealShare is stolen ÷ (busy + stolen) ticks.
func stealShare(busy, steal int64) float64 {
	if busy+steal < minShareTicks {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}

// startMarks takes the first reading now and the inner ones on a
// goroutine; the returned function takes the last and returns them all.
// pid 0 skips the daemon's CPU time.
func startMarks(start time.Time, dur time.Duration, pid int) func() *marks {
	m := &marks{
		cpu:   make([]time.Duration, windows+1),
		busy:  make([]int64, windows+1),
		steal: make([]int64, windows+1),
	}
	read := func(k int) {
		if pid > 0 {
			var err error
			if m.cpu[k], err = procCPU(pid); err != nil {
				m.err = err
			}
		}
		m.busy[k], m.steal[k] = hostCPU()
	}
	read(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 1; k < windows; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * dur / windows)))
			read(k)
		}
	}()
	return func() *marks {
		<-done
		read(windows)
		return m
	}
}

// e2eResult is one end-to-end run's raw measurements.
type e2eResult struct {
	setups  []time.Duration // CPU time of each measured set-up
	tally   *tally
	elapsed time.Duration
	// marks are the window-boundary readings; the daemon's CPU comes from
	// them, while CLI samples carry their own.
	marks  *marks
	served bool
	rssMB  float64
	rssErr error
	used   int // operations consumed from the sequence
}

// runServed runs a served workload: setups× a measured set-up, each torn
// down once measured, then one more whose daemon serves the closed loop.
//
// A set-up's cost is the CPU time of the daemons it runs, up to the
// daemon answering /healthz. That is read from the rusage of the exited
// daemon, which is why the measured set-ups are torn down. Wall time would
// be the plain reading, but a set-up of a few milliseconds is too short to
// divide the hypervisor's steal out of, and on a shared host its wall time
// moved by half between two sets of runs (WORKLOADS.md).
func (e *env) runServed(g *generator, ops []op, dur time.Duration, setups int) (*e2eResult, error) {
	res := &e2eResult{tally: newTally(), served: true}
	var d *daemon
	for k := 0; k <= setups; k++ {
		var done time.Duration // CPU of the set-up's daemons that have exited
		var err error
		if g.workload == "warm-replay" {
			d, done, err = e.setupWarm(g, res.tally)
		} else {
			d, err = e.startDaemon()
		}
		if err != nil {
			return nil, err
		}
		if k == setups {
			break
		}
		// Killed, not stopped: termcheckd installs its SIGTERM handler
		// only after printing its address, so a SIGTERM right after
		// start-up can land before it.
		d.kill()
		res.setups = append(res.setups, done+d.cpu())
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	src := &opSource{g: g, ops: ops}
	rssAt := int(dur.Seconds() * float64(rssOpsPerSecond[g.workload]))
	e.servedLoop(d, src, dur, rssAt, res)
	res.used = int(src.next.Load())
	if res.marks.err != nil {
		return nil, res.marks.err
	}
	if res.rssErr != nil {
		return nil, res.rssErr
	}
	if res.rssMB == 0 {
		return nil, fmt.Errorf("peak RSS is read after %d requests, but only %d completed", rssAt, len(res.tally.samples))
	}
	stopped = true
	return res, d.stop()
}

// setupWarm asks every pool program once of a daemon writing a cache
// file, stops it (which saves the snapshot) and starts a fresh daemon from
// that snapshot. It returns the fresh daemon and the CPU time of the
// stopped one. Set-up answers are checked like timed ones.
func (e *env) setupWarm(g *generator, t *tally) (*daemon, time.Duration, error) {
	file := filepath.Join(e.work, "warm.chasecache")
	if err := os.Remove(file); err != nil && !os.IsNotExist(err) {
		return nil, 0, err
	}
	a, err := e.startDaemon("-cache-file", file)
	if err != nil {
		return nil, 0, err
	}
	for ci := 0; ci < g.poolSize(); ci++ {
		o := g.poolOp(ci)
		if _, err := e.post(a.addr, &o); err != nil {
			t.fail("set-up %s/%s: %v", o.Kind, o.Class, err)
		}
	}
	if err := a.stop(); err != nil {
		return nil, 0, err
	}
	d, err := e.startDaemon("-cache-file", file)
	return d, a.cpu(), err
}

// cliArgs is the command line of a CLI operation on file; cacheFile is the
// batch's shared portfolio cache.
func cliArgs(o *op, file, cacheFile string) (string, []string) {
	switch o.Kind {
	case kindChase:
		return "chase", []string{"-quiet", file}
	case kindTermcheckExists:
		return "termcheck", []string{"-exists", file}
	case kindTermcheckPortfolio:
		return "termcheck", []string{"-portfolio", "-cache-file", cacheFile, file}
	}
	return "termcheck", []string{file}
}

var (
	atomsRE  = regexp.MustCompile(`\batoms=(\d+)`)
	statesRE = regexp.MustCompile(`\bstates=(\d+)`)
)

// checkCLI compares a CLI operation's exit code and output with the
// expected answer.
func checkCLI(o *op, code int, stdout, stderr string) error {
	if want := o.exitCode(); code != want {
		return fmt.Errorf("exit %d, want %d: %s", code, want, strings.TrimSpace(stderr))
	}
	switch o.Kind {
	case kindChase:
		m := atomsRE.FindStringSubmatch(stderr)
		if m == nil || !strings.Contains(stderr, "reason=fixpoint") || m[1] != strconv.Itoa(o.Atoms) {
			return fmt.Errorf("want fixpoint with %d atoms, got %q", o.Atoms, strings.TrimSpace(stderr))
		}
	case kindTermcheckExists:
		m := statesRE.FindStringSubmatch(stdout)
		if m == nil || m[1] != strconv.Itoa(o.States) || !strings.Contains(stdout, "finite derivation exists") {
			return fmt.Errorf("want a finite derivation after %d states, got %q", o.States, firstLine(stdout))
		}
	case kindTermcheckPortfolio:
		if !strings.Contains(stdout, "portfolio: verdict="+o.Verdict+" ") {
			return fmt.Errorf("want portfolio verdict %s, got %q", o.Verdict, stdout)
		}
	}
	return nil
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// cliRun is one finished child process.
type cliRun struct {
	lat    time.Duration // process start to exit
	cpu    time.Duration // user+system, from rusage
	maxRSS float64       // MB
}

// runCLIOp writes the operation's input file and runs the child.
func (e *env) runCLIOp(o *op, dir, cacheFile string) (cliRun, error) {
	file := filepath.Join(dir, "input.chase")
	if err := os.WriteFile(file, []byte(o.Program), 0o644); err != nil {
		return cliRun{}, err
	}
	name, args := cliArgs(o, file, cacheFile)
	cmd := exec.Command(filepath.Join(e.bin, name), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	lat := time.Since(start)
	if err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			return cliRun{}, err
		}
	}
	r := cliRun{lat: lat, cpu: childCPU(cmd.ProcessState)}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.maxRSS = float64(ru.Maxrss) / 1024 // kB on Linux
	}
	return r, checkCLI(o, cmd.ProcessState.ExitCode(), stdout.String(), stderr.String())
}

// warmupProgram is a one-rule program both CLIs answer instantly.
var warmupProgram = op{Seq: -1, Kind: kindChase, Class: "warm-up", Program: "R(a,b).\nR(X,Y) -> S(X).\n", Verdict: "terminates", Atoms: 2}

// runCLI runs cli-batch: setups× set-up (a fresh batch directory and one
// untimed invocation of each binary, so page-cache faults stay out of the
// timed phase), then one child at a time. A set-up's cost is the CPU time
// of its two children, as for the served workloads.
func (e *env) runCLI(g *generator, ops []op, dur time.Duration, setups int) (*e2eResult, error) {
	res := &e2eResult{tally: newTally()}
	dir := filepath.Join(e.work, "cli")
	for k := 0; k < setups; k++ {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var took time.Duration
		for _, kind := range []opKind{kindChase, kindTermcheck} {
			w := warmupProgram
			w.Kind = kind
			r, err := e.runCLIOp(&w, dir, "")
			if err != nil {
				res.tally.fail("set-up %s: %v", kind, err)
			}
			took += r.cpu
		}
		res.setups = append(res.setups, took)
	}
	cacheFile := filepath.Join(dir, "portfolio.chasecache")
	src := &opSource{g: g, ops: ops}
	start := time.Now()
	finish := startMarks(start, dur, 0)
	for time.Since(start) < dur {
		o := src.take()
		r, err := e.runCLIOp(&o, dir, cacheFile)
		res.tally.record(&o, sample{lat: r.lat, at: time.Since(start), cpu: r.cpu}, err)
		if r.maxRSS > res.rssMB {
			res.rssMB = r.maxRSS
		}
	}
	res.elapsed = time.Since(start)
	res.marks = finish()
	res.used = int(src.next.Load())
	return res, nil
}

// hostCPU reads the busy and steal ticks of all CPUs from /proc/stat. An
// unreadable file reads as zero steal, which leaves the unstolen
// throughput equal to the raw one.
func hostCPU() (busy, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	f := strings.Fields(firstLine(string(b)))
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	v := make([]int64, 8)
	for i := range v {
		v[i], _ = strconv.ParseInt(f[i+1], 10, 64) // a malformed field reads as 0
	}
	// user nice system idle iowait irq softirq steal
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7]
}
