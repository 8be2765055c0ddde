package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/ngioproject/norns-go/internal/api/norns"
	"github.com/ngioproject/norns-go/internal/api/nornsctl"
	"github.com/ngioproject/norns-go/internal/proto"
	"github.com/ngioproject/norns-go/internal/task"
	"github.com/ngioproject/norns-go/internal/urd"
)

// task-storm: the control plane. Two user-API clients each keep one
// batch of 64 tasks in flight (SubmitBatch, then WaitAll on the
// combined submit-and-subscribe path). Each batch holds 48 NoOps, 8
// memory→node-local copies of 2–8 KiB and 8 Removes of files an
// earlier round left; the seed places them in the batch and sizes the
// copies.
const (
	stormClients = 2
	stormBatch   = 64
	stormCopies  = 8
	stormRemoves = 8
	// stormBatches is how many batches each client runs per round.
	stormBatches = 16
	// stormPool is how many files each client owns at a round's start:
	// exactly what the round's Removes delete.
	stormPool = stormRemoves * stormBatches
	// stormRecent is how many of the newest task IDs must still answer
	// status queries after the restart.
	stormRecent = 128
)

type storm struct {
	clients [stormClients]*norns.Client
	// pool holds each client's node-local files (relative paths) that a
	// later round's Removes delete, oldest first.
	pool [stormClients][]string
	// last holds the IDs of the final round's tasks, checked after a
	// restart.
	last  []uint64
	maxID uint64
}

func (s *storm) cacheSize() int64 { return 0 }

func (s *storm) inputs(p *pass) error {
	for k := range s.pool {
		if err := os.MkdirAll(filepath.Join(p.nvme, fmt.Sprintf("c%d", k)), 0o755); err != nil {
			return err
		}
		for i := 0; i < stormPool; i++ {
			rel := fmt.Sprintf("c%d/init-%03d", k, i)
			buf := p.g.payload(1<<40|k<<32|i, 2*kib+p.g.rng.IntN(6*kib))
			if err := os.WriteFile(filepath.Join(p.nvme, rel), buf, 0o644); err != nil {
				return err
			}
			s.pool[k] = append(s.pool[k], rel)
		}
	}
	return nil
}

func (s *storm) prime(p *pass) error {
	for k := range s.clients {
		cl, err := norns.Dial(p.c.userSocket())
		if err != nil {
			return err
		}
		s.clients[k] = cl
	}
	return nil
}

// batchOps builds one batch for client k: seeded slots and copy sizes.
func (s *storm) batchOps(p *pass, k, round, b int) []*op {
	kinds := make([]task.Kind, stormBatch)
	for i := range kinds {
		switch {
		case i < stormCopies:
			kinds[i] = task.Copy
		case i < stormCopies+stormRemoves:
			kinds[i] = task.Remove
		default:
			kinds[i] = task.NoOp
		}
	}
	p.g.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	ops := make([]*op, stormBatch)
	for i, kind := range kinds {
		switch kind {
		case task.Copy:
			rel := fmt.Sprintf("c%d/r%d-b%d-%d", k, round, b, i)
			buf := p.g.payload(2<<40|k<<32|(round*stormBatches+b)*stormBatch+i, 2*kib+p.g.rng.IntN(6*kib))
			o := p.newOp(task.Copy, norns.MemoryRegion(buf), norns.PosixPath(dsNVMe, rel))
			sum := sha256.Sum256(buf)
			o.size, o.want, o.host = int64(len(buf)), sum[:], filepath.Join(p.nvme, rel)
			ops[i] = o
		case task.Remove:
			rel := s.pool[k][0]
			s.pool[k] = s.pool[k][1:]
			o := p.newOp(task.Remove, norns.PosixPath(dsNVMe, rel), task.Resource{})
			o.gone = filepath.Join(p.nvme, rel)
			ops[i] = o
		default:
			ops[i] = p.newOp(task.NoOp, norns.MemoryRegion(nil), norns.MemoryRegion(nil))
		}
	}
	return ops
}

func (s *storm) round(p *pass, n int) error {
	var batches [stormClients][stormBatches][]*op
	for k := range batches {
		for b := range batches[k] {
			batches[k][b] = s.batchOps(p, k, n, b)
		}
	}
	var errs [stormClients]error
	err := p.timed(func() error {
		var wg sync.WaitGroup
		for k := range s.clients {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				for b := range batches[k] {
					if errs[k] = s.runBatch(p, k, n*stormBatches+b, batches[k][b]); errs[k] != nil {
						return
					}
				}
			}(k)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var all []*op
	s.last = s.last[:0]
	for k := range batches {
		for _, ops := range batches[k] {
			all = append(all, ops...)
			for _, o := range ops {
				if o.kind == task.Copy && o.status == task.Finished {
					s.pool[k] = append(s.pool[k], o.out.Path)
				}
				s.last = append(s.last, o.id)
				s.maxID = max(s.maxID, o.id)
			}
		}
	}
	p.verify(all)
	return nil
}

// runBatch submits one batch on client k and waits for all of it.
func (s *storm) runBatch(p *pass, k, seq int, ops []*op) error {
	cl := s.clients[k]
	ctx := context.Background()
	tasks := make([]*norns.IOTask, len(ops))
	for i, o := range ops {
		t := norns.NewIOTask(o.kind, o.in, o.out)
		tasks[i] = &t
	}
	start := time.Now()
	res, err := cl.SubmitBatch(ctx, tasks)
	ack := time.Now()
	if err != nil {
		return fmt.Errorf("submit batch: %w", err)
	}
	handles := make([]*norns.TaskHandle, len(ops))
	for i, r := range res {
		o := ops[i]
		o.start, o.ack = start, ack
		if r.Err != nil {
			o.status, o.msg, o.end = task.Failed, r.Err.Error(), ack
			continue
		}
		handles[i] = r.Handle
		o.id = r.Handle.ID()
	}
	// Stamp each task when its own handle resolves, whatever the order
	// the batch's tasks finish in, then collect the outcome with WaitAll.
	var stamped sync.WaitGroup
	for i, h := range handles {
		if h == nil {
			continue
		}
		stamped.Add(1)
		go func(o *op, done <-chan struct{}) {
			defer stamped.Done()
			<-done
			o.end = time.Now()
		}(ops[i], h.Done())
	}
	_ = cl.WaitAll(ctx, handles...) // per-task outcomes are checked from the handles below
	stamped.Wait()
	for i, h := range handles {
		if h == nil {
			continue
		}
		o, st := ops[i], h.Stats()
		o.status, o.moved, o.msg = st.Status, st.MovedBytes, st.Err
		p.terminal(o)
	}
	if p.tr != nil {
		s.traceBatch(p, seq, ops, tasks, res)
	}
	return nil
}

// traceBatch records a batch's spans and keeps a sample of its wire
// messages and journal records for the wire and journal layers.
func (s *storm) traceBatch(p *pass, seq int, ops []*op, tasks []*norns.IOTask, res []norns.BatchResult) {
	tr := p.tr
	bkey := uint64(1)<<63 | uint64(seq)
	start, ack := tr.at(ops[0].start), tr.at(ops[0].ack)
	bid := tr.add(span{kind: spSubmit, obj: bkey, start: start, end: ack})
	for _, o := range ops {
		if o.id != 0 {
			tr.task(o.id, o.key)
		}
		tr.add(span{kind: spTask, obj: o.key, parent: bid, start: start, end: tr.at(o.end), mark: ack})
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.samples) >= maxSamples {
		return
	}
	sm := sample{batch: true, req: proto.Request{Op: proto.OpSubmitBatch, PID: uint64(os.Getpid()),
		Subscribe: &proto.SubscribeSpec{ProgressMS: 100, TerminalOnly: true}}}
	sm.resp = proto.Response{Seq: uint64(seq + 1), Status: proto.Success, SubID: uint64(seq + 1)}
	for i, t := range tasks {
		sm.req.Tasks = append(sm.req.Tasks, proto.TaskSpec{Kind: uint32(t.Kind), Input: proto.FromResource(t.Input), Output: proto.FromResource(t.Output)})
		sm.resp.Results = append(sm.resp.Results, proto.SubmitResult{TaskID: ops[i].id, Status: uint32(proto.Success)})
		if res[i].Err == nil {
			sm.ids = append(sm.ids, ops[i].id)
			sm.specs = append(sm.specs, task.Spec{Kind: t.Kind, Input: t.Input, Output: t.Output, JobID: jobID})
		}
	}
	p.samples = append(p.samples, sm)
}

// finish closes the clients and the compute daemon, then opens a new
// daemon on the same state directory: it must recover every
// acknowledged task it retains as terminal and re-queue none.
func (s *storm) finish(p *pass) error {
	for _, cl := range s.clients {
		cl.Close()
	}
	p.c.ctl.Close()
	p.c.ctl = nil
	p.c.cn.Close()
	p.c.cn = nil
	sock := filepath.Join(p.c.sock, "r.sock")
	d, err := urd.New(urd.Config{NodeName: nodeCN, ControlSocket: sock, StateDir: filepath.Join(p.dir, "state")})
	if err != nil {
		return fmt.Errorf("restart on the state dir: %w", err)
	}
	defer d.Close()
	ctl, err := nornsctl.Dial(sock)
	if err != nil {
		return err
	}
	defer ctl.Close()
	st, err := ctl.StatusInfo()
	if err != nil {
		return err
	}
	if st.RecoveredPending+st.RecoveredRunning != 0 {
		p.problem("restart re-queued %d pending and %d running tasks, want none", st.RecoveredPending, st.RecoveredRunning)
	}
	if st.RecoveredTerminal < uint64(min(p.attempted, 1024)) {
		p.problem("restart recovered %d terminal tasks, want at least %d", st.RecoveredTerminal, min(p.attempted, 1024))
	}
	for _, id := range s.last {
		if id+stormRecent <= s.maxID {
			continue // older than the journal's terminal retention may keep
		}
		ts, err := ctl.TaskStatus(id)
		if err != nil || ts.Status != task.Finished {
			p.problem("restart: acknowledged task %d reads %v (%v), want finished", id, ts.Status, err)
			break
		}
	}
	m, err := ctl.TransferStats()
	if err != nil {
		return err
	}
	if m.Pending+m.Running != 0 {
		p.problem("restarted daemon has %d pending and %d running tasks, want none", m.Pending, m.Running)
	}
	return nil
}
