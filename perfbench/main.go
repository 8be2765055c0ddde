// Command perfbench is the norns-go benchmark: it runs one named
// staging workload against real in-process urd daemons — AF_UNIX
// clients, the ofi+tcp fabric over loopback, directory-backed
// dataspaces — checks every output against digests computed from the
// seed, and prints its metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload stage-in --seed 3 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// twice in one process — once untraced, then with spans recorded from
// this package around every layer boundary — and prints the per-layer
// metrics and the tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/ngioproject/norns-go/internal/transfer"
)

// processStart approximates the process's start: package variables
// are initialized before main runs.
var processStart = time.Now()

// minSamples is the task count a run collects at least, so its p99 has
// ten samples beyond it; a run measures whole rounds until both this
// and --seconds are reached.
const minSamples = 1000

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// out is the directory (under the working directory) holding the
	// run's work area, result and trace files.
	out    string
	faults faults
	// minTasks is the task count a run collects at least (minSamples
	// unless a test lowers it).
	minTasks int
}

// faults are deliberate breakages the benchmark's own tests use to
// show that its checks can fail.
type faults struct {
	flipByte     bool // flip one byte of one staged file before it is verified
	hideTerminal bool // do not count one terminal event seen by a client
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames))
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds of timed work to measure")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.out, "out", ".perfbench", "directory for the work area, result and trace files")
	flag.Parse()
	o.trace = *traceFlag == 1
	o.minTasks = minSamples
	res, err := run(&o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	_ = os.WriteFile(filepath.Join(o.out, "result-"+o.workload+".json"), append(line, '\n'), 0o644)
	fmt.Println(string(line))
}

// run executes one invocation and returns its result line.
func run(o *options) (*result, error) {
	if _, ok := workloads[o.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if transfer.DefaultSegmentSize != blockSize {
		return nil, fmt.Errorf("generator block %d differs from the daemon's segment size %d", blockSize, transfer.DefaultSegmentSize)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	if !o.trace {
		p, err := runPass(o, o.seconds, nil, processStart)
		if err != nil {
			return nil, err
		}
		p.report(os.Stdout, "untraced")
		return &result{Correct: len(p.problems) == 0, Attempted: p.attempted, Failed: p.failed, Metrics: p.endToEnd()}, nil
	}
	// Traced: an untraced pass and a traced pass of half the length
	// each, so the overhead of tracing is measured on this host now.
	base, err := runPass(o, o.seconds/2, nil, time.Now())
	if err != nil {
		return nil, err
	}
	base.report(os.Stdout, "untraced")
	tr := newTracer()
	p, err := runPass(o, o.seconds/2, tr, time.Now())
	if err != nil {
		return nil, err
	}
	p.report(os.Stdout, "traced")
	m := p.perLayer(base)
	if err := tr.writeTSV(filepath.Join(o.out, "trace-"+o.workload+".tsv")); err != nil {
		return nil, err
	}
	printLayers(os.Stdout, m)
	problems := append(base.problems, p.problems...)
	return &result{
		Correct:   len(problems) == 0,
		Attempted: base.attempted + p.attempted,
		Failed:    base.failed + p.failed,
		Metrics:   m,
	}, nil
}

func printLayers(w *os.File, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
