package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/ngioproject/norns-go/internal/api/norns"
	"github.com/ngioproject/norns-go/internal/api/nornsctl"
	"github.com/ngioproject/norns-go/internal/task"
)

// workload is one named traffic mix. Every round is the same closed
// loop of operations; only the seeded inputs differ between runs.
type workload interface {
	// inputs lays out the seeded input files in the host directories
	// (before any daemon starts; not part of the set-up time).
	inputs(p *pass) error
	// cacheSize is the compute node's staging-cache bound (0 = off).
	cacheSize() int64
	// prime runs inside the timed set-up, after the daemons are up.
	prime(p *pass) error
	// round runs one round: its timed part, then its checks.
	round(p *pass, n int) error
	// finish runs the end-of-run checks, daemons still up.
	finish(p *pass) error
}

var workloads = map[string]func() workload{
	"task-storm": func() workload { return &storm{} },
	"stage-in":   func() workload { return &stageIn{} },
	"stage-out":  func() workload { return &stageOut{} },
	"restage":    func() workload { return &restage{} },
}

var workloadNames = []string{"task-storm", "stage-in", "stage-out", "restage"}

// op is one task the benchmark submits, with what it must produce.
type op struct {
	key     uint64
	kind    task.Kind
	in, out task.Resource
	size    int64  // bytes the destination must hold
	want    []byte // SHA-256 the destination must have
	host    string // destination file on the host
	gone    string // host path a Remove must delete
	fabric  int64  // exact fabric bytes expected (Moved − Cache); -1 = not checked
	drain   bool   // local→local copy, expected to take the kernel offload
	srcKey  string // tracer keys of the source and destination
	dstKey  string

	id              uint64
	status          task.Status
	moved, cache    int64
	delta           int64
	msg             string
	start, ack, end time.Time
}

// pass is one measured run of a workload against one cluster.
type pass struct {
	o   *options
	w   workload
	g   *gen
	c   *cluster
	tr  *tracer
	dir string

	nvme, arch, pfs string

	setup, genTime time.Duration
	primeTime      time.Duration // the part of setup spent in prime
	flushTime      time.Duration // spent in flush, outside the window
	window, cpu    time.Duration
	attempted      int64
	failed         int64
	finished       int64
	bytes          int64
	lat            []float64
	problems       []string
	// per-round tasks/s, MiB/s and CPU ms per task; the reported rates
	// are their medians, which a burst of interference on the shared
	// host moves less than the window totals
	rate, goodput, cpuPer []float64

	seen      int64 // terminal states seen by the clients
	moved     int64 // Σ MovedBytes over those
	base      nornsctl.TransferMetrics
	cacheBase nornsctl.DaemonStatus
	nextKey   uint64
	mu        sync.Mutex // guards seen, moved and hidden
	flipped   bool
	// traced passes: the event stream (stopEvents is idempotent) and
	// its terminal-event count
	stopEvents     func()
	terminalEvents atomic.Int64
	hidden         bool
	stateBytes     int64
	// traced-pass inputs of the per-layer metrics
	mallocs, allocBytes, gcs uint64
	served, deltaB           int64
	samples                  []sample
	cacheEnd                 nornsctl.DaemonStatus
	journalUS, wireNS        float64
}

func (p *pass) problem(format string, args ...any) {
	if len(p.problems) < 20 {
		msg := fmt.Sprintf(format, args...)
		p.problems = append(p.problems, msg)
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
}

// runPass runs one workload against a fresh cluster for seconds of
// timed work. setupStart is when set-up time starts counting.
func runPass(o *options, seconds float64, tr *tracer, setupStart time.Time) (*pass, error) {
	abs, err := filepath.Abs(o.out)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(abs, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := &pass{o: o, w: workloads[o.workload](), g: newGen(o.seed), tr: tr, dir: dir}
	t0 := time.Now()
	if p.nvme, p.arch, p.pfs, err = hostDirs(dir); err != nil {
		return nil, err
	}
	if err := p.w.inputs(p); err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	p.flush()
	p.genTime = time.Since(t0)
	if p.c, err = startCluster(dir, p.w.cacheSize(), tr); err != nil {
		return nil, err
	}
	defer p.c.close()
	t1 := time.Now()
	if err := p.w.prime(p); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	p.primeTime = time.Since(t1)
	p.setup = time.Since(setupStart) - p.genTime
	// The totals checks cover the timed rounds only. The daemon counts a
	// task as finished a little after its waiters see it finish, so the
	// baseline waits until the set-up's tasks show in the counters.
	primed := p.seen
	p.seen, p.moved = 0, 0
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if p.base, err = p.c.ctl.TransferStats(); err != nil {
			return nil, err
		}
		if int64(p.base.Finished) >= primed || time.Now().After(deadline) {
			break
		}
	}
	if tr != nil {
		tr.takeWritten()
		tr.pulled.Store(0)
		if err := p.startEvents(); err != nil {
			return nil, fmt.Errorf("event stream: %w", err)
		}
		defer p.stopEvents()
	}
	if p.cacheBase, err = p.c.ctl.StatusInfo(); err != nil {
		return nil, err
	}
	for n := 0; p.window.Seconds() < seconds || len(p.lat) < o.minTasks; n++ {
		w0, c0, f0, b0 := p.window, p.cpu, p.finished, p.bytes
		if err := p.w.round(p, n); err != nil {
			return nil, fmt.Errorf("round %d: %w", n, err)
		}
		p.flush()
		w, fin := (p.window - w0).Seconds(), float64(p.finished-f0)
		p.rate = append(p.rate, fin/w)
		p.goodput = append(p.goodput, float64(p.bytes-b0)/mib/w)
		p.cpuPer = append(p.cpuPer, float64(p.cpu-c0)/1e6/max(fin, 1))
	}
	if tr != nil {
		p.stopEvents()
	}
	if err := p.checkTotals(); err != nil {
		return nil, err
	}
	if p.cacheEnd, err = p.c.ctl.StatusInfo(); err != nil {
		return nil, err
	}
	p.stateBytes = dirBytes(filepath.Join(dir, "state"))
	if err := p.w.finish(p); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := p.sideLayers(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// flush writes back the file data the inputs or the last round left
// dirty, outside the measured window. Otherwise the kernel writes it
// back once it has been dirty for some seconds of wall time, which
// lands inside whichever later round is running then (and makes the
// journal's fsyncs wait on it): on a slower host, earlier in the run.
func (p *pass) flush() {
	t0 := time.Now()
	syscall.Sync()
	p.flushTime += time.Since(t0)
}

// timed runs fn as part of the measured window, accumulating its wall
// time, the process's CPU time and (traced) its allocations.
func (p *pass) timed(fn func() error) error {
	var m0 runtime.MemStats
	if p.tr != nil {
		runtime.ReadMemStats(&m0)
	}
	c0 := cpuTime()
	t0 := time.Now()
	err := fn()
	p.window += time.Since(t0)
	p.cpu += cpuTime() - c0
	if p.tr != nil {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		p.mallocs += m1.Mallocs - m0.Mallocs
		p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		p.gcs += uint64(m1.NumGC - m0.NumGC)
	}
	return err
}

// newOp allocates an operation with the next key and binds its
// resources in the tracer.
func (p *pass) newOp(kind task.Kind, in, out task.Resource) *op {
	p.nextKey++
	o := &op{key: p.nextKey, kind: kind, in: in, out: out, fabric: -1}
	if in.Kind == task.RemotePath {
		o.srcKey = remoteKey(in.Node, in.Dataspace, in.Path)
	} else if in.Kind == task.LocalPath {
		o.srcKey = in.Dataspace + in.Path
	}
	if kind == task.Remove {
		o.dstKey = o.srcKey
	} else if out.Kind == task.LocalPath || out.Kind == task.RemotePath {
		o.dstKey = out.Dataspace + out.Path
	}
	if p.tr != nil {
		if o.srcKey != "" {
			p.tr.bind(o.srcKey, o.key)
		}
		if o.dstKey != "" {
			p.tr.bind(o.dstKey, o.key)
		}
	}
	return o
}

// terminal counts one terminal state seen by a client: Finished ones
// against the daemon's Finished counter (failed tasks count in failed),
// the bytes of all against its moved-bytes counter.
func (p *pass) terminal(o *op) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.moved += o.moved
	if o.status != task.Finished {
		return
	}
	if p.o.faults.hideTerminal && !p.hidden {
		p.hidden = true
		return
	}
	p.seen++
}

// stageWindow is how many tasks a staging client keeps in flight: the
// compute node's two busiest shards' worth of workers (4 each by
// default), so the workers never starve while a task's latency stays
// its service time plus a short, steady queue. Submitting a whole set
// at once instead makes the median latency a point on the queue's
// build-up curve, which moves with every small change in the ratio of
// submit to service rate.
const stageWindow = 8

// stage submits ops through the control client, as slurmctld does, in
// order and at most stageWindow at a time, and waits for every one to
// reach a terminal state: one blocking Wait per task, each on its own
// goroutine, so a task is stamped when its own terminal state reaches
// the client, whatever order the set finishes in. It is the timed part
// of the staging workloads' rounds.
func (p *pass) stage(ops []*op) error {
	ctl := p.c.ctl
	slots := make(chan struct{}, stageWindow)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, o := range ops {
		slots <- struct{}{}
		o.start = time.Now()
		id, err := ctl.SubmitTask(o.kind, o.in, o.out, nornsctl.SubmitOptions{JobID: jobID})
		o.ack = time.Now()
		if err != nil {
			wg.Wait()
			return fmt.Errorf("submit: %w", err)
		}
		o.id = id
		if p.tr != nil {
			p.tr.task(id, o.key)
			p.tr.add(span{kind: spSubmit, obj: o.key, start: p.tr.at(o.start), end: p.tr.at(o.ack)})
			p.keepSample(o)
		}
		wg.Add(1)
		go func(o *op) {
			defer wg.Done()
			defer func() { <-slots }()
			st, err := ctl.Wait(o.id, 0)
			o.end = time.Now()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("wait for task %d: %w", o.id, err)
				}
				return
			}
			o.status, o.moved, o.cache, o.delta, o.msg = st.Status, st.MovedBytes, st.CacheBytes, st.DeltaBytes, st.Err
			p.terminal(o)
		}(o)
	}
	wg.Wait()
	if p.tr != nil {
		for _, o := range ops {
			p.tr.add(span{kind: spTask, obj: o.key, start: p.tr.at(o.start), end: p.tr.at(o.end), mark: p.tr.at(o.ack)})
		}
	}
	return firstErr
}

// startEvents opens one all-tasks event stream on the compute node's
// user socket (traced passes only): its arrivals show when each task
// starts running and when its terminal state is published.
func (p *pass) startEvents() error {
	cl, err := norns.Dial(p.c.userSocket())
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	evs, err := cl.Events(ctx)
	if err != nil {
		cancel()
		cl.Close()
		return err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range evs {
			if ev.Kind == norns.EventState {
				p.tr.event(ev.TaskID, ev.Stats.Status)
				if ev.Stats.Status.Terminal() {
					p.terminalEvents.Add(1)
				}
			} else {
				now := p.tr.now()
				p.tr.add(span{kind: spEvent, byTask: true, obj: ev.TaskID, status: 0xff, start: now, end: now})
			}
		}
	}()
	var once sync.Once
	p.stopEvents = func() {
		once.Do(func() {
			// The stream runs on its own connection, so the last terminal
			// events may trail the Wait responses by a little.
			for deadline := time.Now().Add(2 * time.Second); p.terminalEvents.Load() < p.attempted && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			cancel()
			<-done
			cl.Close()
		})
	}
	return nil
}

// verify checks every operation of a round against what the generator
// says it must have produced, reading the host directories directly.
func (p *pass) verify(ops []*op) {
	for _, o := range ops {
		p.attempted++
		if o.status != task.Finished {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: task %d ended %v: %s\n", o.id, o.status, o.msg)
			continue
		}
		p.finished++
		p.lat = append(p.lat, float64(o.end.Sub(o.start))/1e6)
		p.served += o.cache
		p.deltaB += o.delta
		if o.gone != "" {
			if _, err := os.Stat(o.gone); !errors.Is(err, os.ErrNotExist) {
				p.problem("task %d: removed file %s still present (%v)", o.id, o.gone, err)
			}
		}
		if o.host == "" {
			continue
		}
		if o.moved+o.delta != o.size {
			p.problem("task %d: moved %d + delta-skipped %d bytes, file holds %d", o.id, o.moved, o.delta, o.size)
		}
		if o.fabric >= 0 && o.moved-o.cache != o.fabric {
			p.problem("task %d: %d bytes crossed the fabric, want exactly %d", o.id, o.moved-o.cache, o.fabric)
		}
		if p.o.faults.flipByte && !p.flipped {
			p.flipped = true
			if err := flipByte(o.host); err != nil {
				p.problem("flip a byte of %s: %v", o.host, err)
			}
		}
		sum, size, err := hashFile(o.host)
		switch {
		case err != nil:
			p.problem("task %d: read %s: %v", o.id, o.host, err)
		case size != o.size || !bytes.Equal(sum, o.want):
			p.problem("task %d: %s has %d bytes with SHA-256 %x, want %d bytes with %x", o.id, o.host, size, sum[:8], o.size, o.want[:8])
		default:
			p.bytes += o.size
		}
	}
	if p.tr != nil {
		p.checkWritten(ops)
	}
}

// checkWritten compares what the storage wrapper saw land at each
// destination with what the daemon says it moved there, and the bytes
// PullRange returned with the fabric share of the pulls.
func (p *pass) checkWritten(ops []*op) {
	written, copied := p.tr.takeWritten()
	pulled := p.tr.pulled.Swap(0)
	var moved, fabricWant, drainWant, drainCopied int64
	for _, o := range ops {
		if o.status != task.Finished || o.host == "" {
			continue
		}
		moved += o.moved
		if w := written[o.dstKey]; w != o.moved {
			p.problem("task %d: storage saw %d bytes written to %s, the task moved %d (delta-skipped %d)", o.id, w, o.dstKey, o.moved, o.delta)
		}
		if o.in.Kind == task.RemotePath {
			fabricWant += o.moved - o.cache
		}
		if o.drain {
			drainWant += o.size
			drainCopied += copied[o.dstKey]
		}
	}
	var total int64
	for _, n := range written {
		total += n
	}
	if total != moved {
		p.problem("storage saw %d bytes written to destinations, tasks moved %d", total, moved)
	}
	if pulled != fabricWant {
		p.problem("PullRange returned %d bytes, tasks pulled %d over the fabric", pulled, fabricWant)
	}
	if drainCopied != drainWant {
		p.problem("local drains: %d of %d bytes went through CopyRange (the offload was bypassed)", drainCopied, drainWant)
	}
}

// checkTotals compares the clients' terminal count and moved bytes with
// the daemon's own counters.
func (p *pass) checkTotals() error {
	var m nornsctl.TransferMetrics
	var err error
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if m, err = p.c.ctl.TransferStats(); err != nil {
			return err
		}
		if int64(m.Finished-p.base.Finished) >= p.seen || time.Now().After(deadline) {
			break
		}
	}
	if got := int64(m.Finished - p.base.Finished); got != p.seen {
		p.problem("clients saw %d terminal events, the daemon finished %d tasks", p.seen, got)
	}
	if got := m.MovedBytes - p.base.MovedBytes; got != p.moved {
		p.problem("clients saw %d bytes moved, the daemon counted %d", p.moved, got)
	}
	return nil
}

func hashFile(path string) ([]byte, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	return h.Sum(nil), n, err
}

func flipByte(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, 0); err != nil {
		f.Close()
		return err
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set (VmHWM) in MiB.
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return 0
}

// quantile is the nearest-rank q-quantile of vals. A tail quantile is
// reported only when at least ten samples lie beyond it; ok is false
// otherwise.
func quantile(vals []float64, q float64) (v float64, ok bool) {
	n := len(vals)
	if n == 0 {
		return 0, false
	}
	if q > 0.5 && float64(n)*(1-q) < 10-1e-9 {
		return 0, false
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(n))) - 1
	return s[max(i, 0)], true
}

// endToEnd assembles the end-to-end metrics of an untraced pass.
func (p *pass) endToEnd() map[string]metric {
	med := func(v []float64) float64 { q, _ := quantile(v, 0.5); return q }
	m := map[string]metric{
		"setup_s":         {p.setup.Seconds(), "s"},
		"tasks_per_s":     {med(p.rate), "tasks/s"},
		"goodput_MiBps":   {med(p.goodput), "MiB/s"},
		"cpu_ms_per_task": {med(p.cpuPer), "ms"},
	}
	if v, ok := quantile(p.lat, 0.5); ok {
		m["task_p50_ms"] = metric{v, "ms"}
	}
	if v, ok := quantile(p.lat, 0.99); ok {
		m["task_p99_ms"] = metric{v, "ms"}
	}
	return m
}

func (p *pass) report(w io.Writer, label string) {
	fmt.Fprintf(w, "%s %s seed=%d: %d tasks in %.3fs window (%d attempted, %d failed), set-up %.4fs (priming %.4fs)\n",
		p.o.workload, label, p.o.seed, p.finished, p.window.Seconds(), p.attempted, p.failed, p.setup.Seconds(), p.primeTime.Seconds())
	m := p.endToEnd()
	if len(p.rate) > 0 {
		s := append([]float64(nil), p.rate...)
		sort.Float64s(s)
		fmt.Fprintf(w, "  %d rounds, tasks/s per round: min %.1f median %.1f max %.1f; first %.1f last %.1f\n",
			len(s), s[0], s[len(s)/2], s[len(s)-1], p.rate[0], p.rate[len(p.rate)-1])
	}
	fmt.Fprintf(w, "  %-32s %14.4f %s\n", "window tasks_per_s", float64(p.finished)/p.window.Seconds(), "tasks/s")
	fmt.Fprintf(w, "  %-32s %14.4f %s\n", "window goodput_MiBps", float64(p.bytes)/mib/p.window.Seconds(), "MiB/s")
	fmt.Fprintf(w, "  %-32s %14.4f %s\n", "peak RSS (VmHWM)", peakRSS(), "MiB")
	fmt.Fprintf(w, "  %-32s %14.4f %s\n", "write-back between rounds", p.flushTime.Seconds(), "s")
	for _, k := range []string{"setup_s", "tasks_per_s", "goodput_MiBps", "task_p50_ms", "task_p99_ms", "cpu_ms_per_task"} {
		if v, ok := m[k]; ok {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", k, v.Value, v.Unit)
		}
	}
	if len(p.problems) > 0 {
		fmt.Fprintf(w, "  OUTPUT CHECKS FAILED: %d problem(s), first: %s\n", len(p.problems), p.problems[0])
	}
}
