package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"github.com/ngioproject/norns-go/internal/journal"
	"github.com/ngioproject/norns-go/internal/proto"
	"github.com/ngioproject/norns-go/internal/task"
	"github.com/ngioproject/norns-go/internal/wire"
)

// maxSamples bounds the submit requests a traced pass keeps for the
// wire and journal layers.
const maxSamples = 32

// sample is one submit the run made: its wire request and response and
// the journal records the daemon wrote for it.
type sample struct {
	req   proto.Request
	resp  proto.Response
	batch bool
	ids   []uint64
	specs []task.Spec
}

// keepSample records a single-task submit (traced passes only).
func (p *pass) keepSample(o *op) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.samples) >= maxSamples {
		return
	}
	spec := proto.TaskSpec{Kind: uint32(o.kind), Input: proto.FromResource(o.in), Output: proto.FromResource(o.out), JobID: jobID}
	p.samples = append(p.samples, sample{
		req:   proto.Request{Op: proto.OpSubmit, PID: 1, Task: &spec},
		resp:  proto.Response{Seq: uint64(len(p.samples) + 1), Status: proto.Success, TaskID: o.id},
		ids:   []uint64{o.id},
		specs: []task.Spec{{Kind: o.kind, Input: o.in, Output: o.out, JobID: jobID}},
	})
}

// sideLayers measures the wire and journal layers on the pass's own
// messages and records, before its work directory goes away.
func (p *pass) sideLayers() error {
	j, err := journal.Open(filepath.Join(p.dir, "side-journal"), journal.Options{})
	if err != nil {
		return err
	}
	var n int
	var total time.Duration
	for _, sm := range p.samples {
		t0 := time.Now()
		if sm.batch {
			p.tr.timed(spJournal, 0, func() int64 { err = j.RecordSubmitBatch(sm.ids, sm.specs); return 0 })
		} else {
			p.tr.timed(spJournal, 0, func() int64 { err = j.RecordSubmit(sm.ids[0], sm.specs[0]); return 0 })
		}
		for _, st := range []task.Status{task.Running, task.Finished} {
			for _, id := range sm.ids {
				if err == nil {
					p.tr.timed(spJournal, 0, func() int64 { err = j.RecordState(id, st, ""); return 0 })
				}
			}
		}
		total += time.Since(t0)
		n += len(sm.ids)
		if err != nil {
			j.Close()
			return fmt.Errorf("side journal: %w", err)
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	p.journalUS = float64(total) / 1e3 / float64(max(n, 1))

	var buf bytes.Buffer
	fw, fr := wire.NewFrameWriter(&buf), wire.NewFrameReader(&buf)
	var rts []float64
	for rep := 0; rep < 16; rep++ {
		for i := range p.samples {
			sm := &p.samples[i]
			var req proto.Request
			var resp proto.Response
			t0 := time.Now()
			err := fw.WriteMessage(&sm.req)
			if err == nil {
				err = fr.ReadMessage(&req)
			}
			if err == nil {
				err = fw.WriteMessage(&sm.resp)
			}
			if err == nil {
				err = fr.ReadMessage(&resp)
			}
			rts = append(rts, float64(time.Since(t0)))
			if err != nil {
				return fmt.Errorf("wire round trip: %w", err)
			}
			if req.Op != sm.req.Op || len(req.Tasks) != len(sm.req.Tasks) || len(resp.Results) != len(sm.resp.Results) || resp.TaskID != sm.resp.TaskID {
				p.problem("wire round trip changed a %v request", sm.req.Op)
			}
		}
	}
	p.wireNS, _ = quantile(rts, 0.5)
	return nil
}

// interval helpers ----------------------------------------------------

type interval struct{ a, b int64 }

// union is the length of the union of ivs (sorted in place).
func union(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	start := int64(-1)
	for _, iv := range ivs {
		if start < 0 || iv.a > end {
			if start >= 0 {
				total += end - start
			}
			start, end = iv.a, iv.b
			continue
		}
		end = max(end, iv.b)
	}
	if start >= 0 {
		total += end - start
	}
	return total
}

type kindStats struct {
	n     int
	bytes int64
	durs  []float64 // ms
	busy  []interval
}

type opTrace struct {
	task      *span
	running   int64
	terminal  int64
	children  []interval
	pullBusy  int64
	hasRun    bool
	hasFinish bool
}

// perLayer computes the traced pass's per-layer metrics and the
// tracing overhead against the untraced pass base.
func (p *pass) perLayer(base *pass) map[string]metric {
	tr := p.tr
	tr.mu.Lock()
	spans, taskOf := tr.spans, tr.tasks
	tr.mu.Unlock()

	var ks [nSpanKinds]kindStats
	ops := make(map[uint64]*opTrace)
	get := func(k uint64) *opTrace {
		o := ops[k]
		if o == nil {
			o = &opTrace{}
			ops[k] = o
		}
		return o
	}
	for i := range spans {
		s := &spans[i]
		k := &ks[s.kind]
		k.n++
		k.bytes += s.bytes
		d := s.end - s.start
		k.durs = append(k.durs, float64(d)/1e6)
		k.busy = append(k.busy, interval{s.start, s.end})
		key := s.obj
		if s.byTask {
			key = taskOf[s.obj]
		}
		if key == 0 || key&(1<<63) != 0 {
			continue // side-layer spans and batch spans own no task
		}
		o := get(key)
		switch s.kind {
		case spTask:
			o.task = s
		case spEvent:
			st := task.Status(s.status)
			if s.status != 0xff && st.Terminal() && !o.hasFinish {
				o.terminal, o.hasFinish = s.start, true
			} else if st == task.Running && !o.hasRun {
				o.running, o.hasRun = s.start, true
			}
		case spSegment:
		default:
			o.children = append(o.children, interval{s.start, s.end})
			if s.kind == spPull {
				o.pullBusy += d
			}
		}
	}
	var wait, runs, self []float64
	var pullBusy, runBusy int64
	for _, o := range ops {
		if o.task == nil {
			continue
		}
		if o.hasRun {
			wait = append(wait, float64(max(o.running-o.task.mark, 0))/1e6)
			if o.hasFinish {
				r := max(o.terminal-o.running, 0)
				runs = append(runs, float64(r)/1e6)
				runBusy += r
				pullBusy += o.pullBusy
			}
		}
		cov := o.children[:0:0]
		for _, c := range o.children {
			if a, b := max(c.a, o.task.start), min(c.b, o.task.end); b > a {
				cov = append(cov, interval{a, b})
			}
		}
		self = append(self, float64(o.task.end-o.task.start-union(cov))/1e6)
	}

	tasks := float64(max(p.finished, 1))
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	p50 := func(v []float64) float64 { q, _ := quantile(v, 0.5); return q }
	rate := func(k spanKind) float64 {
		busy := union(ks[k].busy)
		if busy == 0 {
			return 0
		}
		return float64(ks[k].bytes) / mib / (float64(busy) / 1e9)
	}

	put("api.submit_ms", p50(ks[spSubmit].durs), "ms")
	put("wire.roundtrip_ns", p.wireNS, "ns")
	put("urd.queue_wait_ms", p50(wait), "ms")
	put("urd.run_ms", p50(runs), "ms")
	put("urd.events_per_task", float64(ks[spEvent].n)/tasks, "events/task")
	put("urd.self_ms", p50(self), "ms")
	put("journal.append_us_per_task", p.journalUS, "us")
	put("journal.bytes_per_task", float64(p.stateBytes)/float64(max(p.attempted, 1)), "B/task")
	put("storage.write_MiBps", rate(spFSWrite), "MiB/s")
	put("storage.write_calls", float64(ks[spFSWrite].n)/tasks, "calls/task")
	put("storage.read_MiBps", rate(spFSRead), "MiB/s")
	put("storage.rangecopy_MiBps", rate(spFSCopy), "MiB/s")
	put("storage.opens_per_task", float64(ks[spFSOpen].n)/tasks, "opens/task")
	put("mercury.open_ms", p50(ks[spOpen].durs), "ms")
	put("mercury.pull_MiBps", rate(spPull), "MiB/s")
	put("mercury.pull_ms", p50(ks[spPull].durs), "ms")
	put("mercury.fabric_MiB", float64(ks[spPull].bytes)/mib/tasks, "MiB/task")
	put("mercury.send_MiBps", rate(spSend), "MiB/s")
	put("transfer.segments_per_task", float64(ks[spSegment].n)/tasks, "segments/task")
	par := 0.0
	if runBusy > 0 {
		par = float64(pullBusy) / float64(runBusy)
	}
	put("transfer.parallelism", par, "streams")
	hits := float64(p.cacheEnd.CacheHits - p.cacheBase.CacheHits)
	misses := float64(p.cacheEnd.CacheMisses - p.cacheBase.CacheMisses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	put("cascache.hit_ratio", ratio, "ratio")
	put("cascache.hits", hits/tasks, "hits/task")
	put("cascache.misses", misses/tasks, "misses/task")
	put("cascache.served_MiB", float64(p.served)/mib/tasks, "MiB/task")
	put("cascache.delta_MiB", float64(p.deltaB)/mib/tasks, "MiB/task")
	put("cascache.evictions", float64(p.cacheEnd.CacheEvictions-p.cacheBase.CacheEvictions), "count")
	put("proc.allocs_per_task", float64(p.mallocs)/tasks, "allocs/task")
	put("proc.alloc_bytes_per_task", float64(p.allocBytes)/tasks, "B/task")
	put("proc.gc_cycles", float64(p.gcs)*1000/tasks, "1/ktask")
	put("proc.rss_peak_MiB", peakRSS(), "MiB")

	bm, tm := base.endToEnd(), p.endToEnd()
	put("trace.base_tasks_per_s", bm["tasks_per_s"].Value, "tasks/s")
	put("trace.tasks_per_s", tm["tasks_per_s"].Value, "tasks/s")
	put("trace.base_task_p50_ms", bm["task_p50_ms"].Value, "ms")
	put("trace.task_p50_ms", tm["task_p50_ms"].Value, "ms")
	overhead := 0.0
	if v := bm["tasks_per_s"].Value; v > 0 {
		overhead = (v - tm["tasks_per_s"].Value) / v * 100
	}
	put("trace.overhead_pct", overhead, "%")
	put("trace.spans_per_task", float64(len(spans))/tasks, "spans/task")
	return m
}
