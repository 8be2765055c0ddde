package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ngioproject/norns-go/internal/mercury"
	"github.com/ngioproject/norns-go/internal/storage"
	"github.com/ngioproject/norns-go/internal/task"
	"github.com/ngioproject/norns-go/internal/transfer"
)

// The traced run records spans from this package only: around the
// client API calls and event arrivals, the FS methods of every
// dataspace (through urd.Hooks.WrapFS), the executor's transfer.Remote
// (a wrapper installed through Daemon.Executor), urd.Hooks.AfterSegment
// and the side journal. Spans are kept in memory and written out when
// the run ends.

type spanKind uint8

const (
	spTask     spanKind = iota // one operation: submit call start → terminal state seen by the client
	spSubmit                   // api.submit: one SubmitBatch / SubmitTask call
	spEvent                    // one event arrival on a client's event stream (instant)
	spFSOpen                   // storage: Create / Open / OpenReaderAt / OpenWriterAt
	spFSWrite                  // storage: WriteAt on a handle
	spFSRead                   // storage: ReadAt on a handle
	spFSCopy                   // storage: CopyRange (kernel offload)
	spFSRemove                 // storage: Remove / RemoveAll
	spOpen                     // mercury: OpenFile / OpenFileDigested (the expose RPC)
	spPull                     // mercury: RemoteFile.PullRange
	spSend                     // mercury: Remote.SendFile
	spSegment                  // transfer: AfterSegment (instant)
	spJournal                  // journal: one append on the side journal
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"task", "api.submit", "urd.event", "storage.open", "storage.write",
	"storage.read", "storage.copy_range", "storage.remove", "mercury.open",
	"mercury.pull", "mercury.send", "transfer.segment", "journal.append",
}

// span is one recorded interval. obj is the benchmark's operation key
// (or batch key for api.submit spans of a batch), or a daemon task ID
// when byTask is set — resolved to the operation at analysis time.
type span struct {
	kind   spanKind
	byTask bool
	status uint8 // event spans: the task status carried
	parent uint32
	obj    uint64
	start  int64 // ns since the tracer's epoch
	end    int64
	mark   int64 // task spans: when the submit call returned
	bytes  int64
}

type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// ops maps a resource key (dataspace + path) to the operation that
	// currently owns it; tasks maps daemon task IDs to operations.
	ops   map[string]uint64
	tasks map[uint64]uint64
	// written counts bytes landed per destination key, by WriteAt and
	// CopyRange.
	written map[string]int64
	copied  map[string]int64 // the CopyRange share of written
	// pulled sums the bytes PullRange returned.
	pulled atomic.Int64
}

func newTracer() *tracer {
	return &tracer{
		epoch:   time.Now(),
		spans:   make([]span, 0, 1<<16),
		ops:     make(map[string]uint64),
		tasks:   make(map[uint64]uint64),
		written: make(map[string]int64),
		copied:  make(map[string]int64),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// add records a span and returns its ID (index + 1).
func (t *tracer) add(s span) uint32 {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	id := uint32(len(t.spans))
	t.mu.Unlock()
	return id
}

// bind makes op the owner of a resource key.
func (t *tracer) bind(key string, op uint64) {
	t.mu.Lock()
	t.ops[key] = op
	t.mu.Unlock()
}

func (t *tracer) opOf(key string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ops[key]
}

// task records that daemon task id carries operation op.
func (t *tracer) task(id, op uint64) {
	t.mu.Lock()
	t.tasks[id] = op
	t.mu.Unlock()
}

func (t *tracer) wrote(key string, n int64, viaCopy bool) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	t.written[key] += n
	if viaCopy {
		t.copied[key] += n
	}
	t.mu.Unlock()
}

// takeWritten returns and clears the per-key write totals: all bytes
// landed, and the CopyRange share of them.
func (t *tracer) takeWritten() (written, copied map[string]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	written, copied = t.written, t.copied
	t.written, t.copied = make(map[string]int64), make(map[string]int64)
	return written, copied
}

func (t *tracer) timed(kind spanKind, op uint64, fn func() int64) {
	s := span{kind: kind, obj: op, start: t.now()}
	s.bytes = fn()
	s.end = t.now()
	t.add(s)
}

// event records one event arrival for daemon task id.
func (t *tracer) event(id uint64, st task.Status) {
	now := t.now()
	t.add(span{kind: spEvent, byTask: true, obj: id, status: uint8(st), start: now, end: now})
}

// afterSegment is the urd.Hooks.AfterSegment hook.
func (t *tracer) afterSegment(tk *task.Task) {
	now := t.now()
	t.add(span{kind: spSegment, byTask: true, obj: tk.ID, start: now, end: now})
}

// writeTSV writes every span, parents resolved, one per line.
func (t *tracer) writeTSV(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	taskSpan := make(map[uint64]uint32)
	for i, s := range t.spans {
		if s.kind == spTask {
			taskSpan[s.obj] = uint32(i + 1)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\top\ttask\tstart_ns\tend_ns\tbytes")
	for i, s := range t.spans {
		op, tid := s.obj, uint64(0)
		if s.byTask {
			tid, op = s.obj, t.tasks[s.obj]
		}
		parent := s.parent
		if parent == 0 && s.kind != spTask {
			parent = taskSpan[op] // 0 for batch keys, which own no task span
		}
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n", i+1, parent, spanNames[s.kind], op, tid, s.start, s.end, s.bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------
// storage: the Hooks.WrapFS wrapper.

// traceFS wraps a dataspace backend. It keeps the random-access and
// range-copy capabilities of the FS it wraps, and unwraps its own
// handles before forwarding CopyRange, so the traced run takes the same
// kernel-offload path as the untraced one.
type traceFS struct {
	inner storage.FS
	ds    string
	t     *tracer
}

var (
	_ storage.FS            = (*traceFS)(nil)
	_ storage.RandomReadFS  = (*traceFS)(nil)
	_ storage.RandomWriteFS = (*traceFS)(nil)
	_ storage.RangeCopier   = (*traceFS)(nil)
)

func (f *traceFS) key(path string) string { return f.ds + path }

func (f *traceFS) opened(path string, start int64) uint64 {
	op := f.t.opOf(f.key(path))
	f.t.add(span{kind: spFSOpen, obj: op, start: start, end: f.t.now()})
	return op
}

// Create serves only the sequential fallback, which no directory
// dataspace takes; its writes are not counted.
func (f *traceFS) Create(path string) (io.WriteCloser, error) {
	start := f.t.now()
	w, err := f.inner.Create(path)
	f.opened(path, start)
	return w, err
}

func (f *traceFS) Open(path string) (io.ReadCloser, error) {
	start := f.t.now()
	r, err := f.inner.Open(path)
	f.opened(path, start)
	return r, err
}

func (f *traceFS) Stat(path string) (storage.FileInfo, error) { return f.inner.Stat(path) }

func (f *traceFS) Remove(path string) error {
	var err error
	f.t.timed(spFSRemove, f.t.opOf(f.key(path)), func() int64 { err = f.inner.Remove(path); return 0 })
	return err
}

func (f *traceFS) RemoveAll(path string) error {
	var err error
	f.t.timed(spFSRemove, f.t.opOf(f.key(path)), func() int64 { err = f.inner.RemoveAll(path); return 0 })
	return err
}

func (f *traceFS) List(prefix string) ([]storage.FileInfo, error) { return f.inner.List(prefix) }
func (f *traceFS) Usage() (int64, error)                          { return f.inner.Usage() }

func (f *traceFS) OpenReaderAt(path string) (storage.ReaderAtCloser, error) {
	rr, ok := f.inner.(storage.RandomReadFS)
	if !ok {
		return nil, storage.ErrNotExist
	}
	start := f.t.now()
	r, err := rr.OpenReaderAt(path)
	op := f.opened(path, start)
	if err != nil {
		return nil, err
	}
	return &traceReader{r: r, t: f.t, op: op}, nil
}

func (f *traceFS) OpenWriterAt(path string, size int64) (storage.WriterAtCloser, error) {
	rw, ok := f.inner.(storage.RandomWriteFS)
	if !ok {
		return nil, storage.ErrReadOnly
	}
	start := f.t.now()
	w, err := rw.OpenWriterAt(path, size)
	op := f.opened(path, start)
	if err != nil {
		return nil, err
	}
	return &traceWriter{w: w, t: f.t, key: f.key(path), op: op}, nil
}

// CopyRange unwraps the handles this wrapper handed out (the source may
// come from another dataspace's wrapper, or be a staging-cache file)
// and forwards to the wrapped FS's offload.
func (f *traceFS) CopyRange(dst io.WriterAt, dstOff int64, src io.ReaderAt, srcOff, length int64) (int64, error) {
	rc, ok := f.inner.(storage.RangeCopier)
	if !ok {
		return 0, storage.ErrOffloadUnsupported
	}
	tw, ok := dst.(*traceWriter)
	if !ok {
		return rc.CopyRange(dst, dstOff, src, srcOff, length)
	}
	if tr, ok := src.(*traceReader); ok {
		src = tr.r
	}
	var n int64
	var err error
	f.t.timed(spFSCopy, tw.op, func() int64 {
		n, err = rc.CopyRange(tw.w, dstOff, src, srcOff, length)
		return n
	})
	f.t.wrote(tw.key, n, true)
	return n, err
}

type traceReader struct {
	r  storage.ReaderAtCloser
	t  *tracer
	op uint64
}

func (r *traceReader) ReadAt(p []byte, off int64) (int, error) {
	var n int
	var err error
	r.t.timed(spFSRead, r.op, func() int64 { n, err = r.r.ReadAt(p, off); return int64(n) })
	return n, err
}

func (r *traceReader) Size() int64  { return r.r.Size() }
func (r *traceReader) Close() error { return r.r.Close() }

type traceWriter struct {
	w   storage.WriterAtCloser
	t   *tracer
	key string
	op  uint64
}

func (w *traceWriter) WriteAt(p []byte, off int64) (int, error) {
	var n int
	var err error
	w.t.timed(spFSWrite, w.op, func() int64 { n, err = w.w.WriteAt(p, off); return int64(n) })
	w.t.wrote(w.key, int64(n), false)
	return n, err
}

func (w *traceWriter) Close() error { return w.w.Close() }

// ---------------------------------------------------------------------
// mercury: the transfer.Remote wrapper installed on the executor.

type traceRemote struct {
	inner transfer.Remote
	t     *tracer
}

// traceDigestRemote keeps the DigestRemote capability of a Remote that
// has it; the executor probes for it with a type assertion.
type traceDigestRemote struct {
	traceRemote
	dr transfer.DigestRemote
}

// wrapRemote wraps r, keeping DigestRemote when r has it.
func wrapRemote(r transfer.Remote, t *tracer) transfer.Remote {
	base := traceRemote{inner: r, t: t}
	if dr, ok := r.(transfer.DigestRemote); ok {
		return &traceDigestRemote{traceRemote: base, dr: dr}
	}
	return &base
}

func remoteKey(node, ds, path string) string { return node + "@" + ds + path }

func (r *traceRemote) SendFile(node, dstDataspace, dstPath string, src mercury.BulkProvider) (int64, error) {
	var n int64
	var err error
	r.t.timed(spSend, r.t.opOf(dstDataspace+dstPath), func() int64 {
		n, err = r.inner.SendFile(node, dstDataspace, dstPath, src)
		return n
	})
	return n, err
}

func (r *traceRemote) OpenFile(node, srcDataspace, srcPath string) (transfer.RemoteFile, error) {
	op := r.t.opOf(remoteKey(node, srcDataspace, srcPath))
	var rf transfer.RemoteFile
	var err error
	r.t.timed(spOpen, op, func() int64 { rf, err = r.inner.OpenFile(node, srcDataspace, srcPath); return 0 })
	if err != nil {
		return nil, err
	}
	return &traceRemoteFile{rf: rf, t: r.t, op: op}, nil
}

func (r *traceRemote) StatFile(node, srcDataspace, srcPath string) (int64, error) {
	return r.inner.StatFile(node, srcDataspace, srcPath)
}

func (r *traceDigestRemote) OpenFileDigested(node, srcDataspace, srcPath string, segSize int64) (transfer.RemoteFile, [][]byte, error) {
	op := r.t.opOf(remoteKey(node, srcDataspace, srcPath))
	var rf transfer.RemoteFile
	var digests [][]byte
	var err error
	r.t.timed(spOpen, op, func() int64 {
		rf, digests, err = r.dr.OpenFileDigested(node, srcDataspace, srcPath, segSize)
		return 0
	})
	if err != nil {
		return nil, nil, err
	}
	return &traceRemoteFile{rf: rf, t: r.t, op: op}, digests, nil
}

type traceRemoteFile struct {
	rf transfer.RemoteFile
	t  *tracer
	op uint64
}

func (f *traceRemoteFile) Size() int64      { return f.rf.Size() }
func (f *traceRemoteFile) Concurrent() bool { return f.rf.Concurrent() }
func (f *traceRemoteFile) Close() error     { return f.rf.Close() }

func (f *traceRemoteFile) PullRange(stream int, off, count int64, dst mercury.BulkProvider) (int64, error) {
	var n int64
	var err error
	f.t.timed(spPull, f.op, func() int64 { n, err = f.rf.PullRange(stream, off, count, dst); return n })
	f.t.pulled.Add(n)
	return n, err
}
