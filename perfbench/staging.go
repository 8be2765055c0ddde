package main

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/ngioproject/norns-go/internal/api/norns"
	"github.com/ngioproject/norns-go/internal/task"
)

// The staging workloads drive the compute node's control socket with
// one nornsctl client, in slurmctld's role: each round submits a job's
// whole file set and waits for every task (a closed loop of sets).

// stagedFile is one input or output file with its expected digest.
type stagedFile struct {
	*fileSpec
	want []byte
}

func segments(size int64) int64 { return (size + blockSize - 1) / blockSize }

// layOut writes files under dir and records their digests.
func layOut(p *pass, dir string, specs []*fileSpec) ([]stagedFile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	files := make([]stagedFile, len(specs))
	for i, f := range specs {
		sum, err := p.g.write(filepath.Join(dir, f.name), f)
		if err != nil {
			return nil, err
		}
		files[i] = stagedFile{f, sum}
	}
	return files, nil
}

// pullOps builds one stage-in of files from the PFS into dst/ on the
// node-local dataspace.
func pullOps(p *pass, files []stagedFile, srcDir, dst string) []*op {
	ops := make([]*op, len(files))
	for i, f := range files {
		rel := dst + "/" + f.name
		o := p.newOp(task.Copy, norns.RemotePosixPath(nodePFS, dsPFS, srcDir+"/"+f.name), norns.PosixPath(dsNVMe, rel))
		o.size, o.want, o.host = f.size, f.want, filepath.Join(p.nvme, rel)
		ops[i] = o
	}
	return ops
}

// ---------------------------------------------------------------------

// stage-in: fabric pulls with the cache off. A job's input set — 3
// files sharing 96 MiB and 48 of about 1 MiB sharing 48 MiB — is pulled
// from the PFS daemon into a fresh node-local directory each round;
// the copies are removed between rounds, outside the timed window.
type stageIn struct {
	files []stagedFile
}

func (s *stageIn) cacheSize() int64 { return 0 }

func (s *stageIn) inputs(p *pass) (err error) {
	s.files, err = layOut(p, filepath.Join(p.pfs, "in"), p.g.fileSet("in", 0, 3, 96*mib, 48, 48*mib))
	return err
}

func (s *stageIn) prime(p *pass) error { return nil }

func (s *stageIn) round(p *pass, n int) error {
	dst := fmt.Sprintf("set%d", n)
	ops := pullOps(p, s.files, "in", dst)
	if err := p.timed(func() error { return p.stage(ops) }); err != nil {
		return err
	}
	p.verify(ops)
	return os.RemoveAll(filepath.Join(p.nvme, dst))
}

func (s *stageIn) finish(p *pass) error { return nil }

// ---------------------------------------------------------------------

// stage-out: writes beside reads. The job's outputs — 2 files sharing
// 32 MiB and 32 of about 1 MiB sharing 32 MiB — sit on node-local
// storage; each round pushes every one to the PFS daemon (the peer
// pulls from the compute node's exposed file) and drains every one to
// the second local dataspace (the kernel range-copy offload).
type stageOut struct {
	files []stagedFile
}

func (s *stageOut) cacheSize() int64 { return 0 }

func (s *stageOut) inputs(p *pass) (err error) {
	s.files, err = layOut(p, filepath.Join(p.nvme, "out"), p.g.fileSet("out", 0, 2, 32*mib, 32, 32*mib))
	return err
}

func (s *stageOut) prime(p *pass) error { return nil }

func (s *stageOut) round(p *pass, n int) error {
	dst := fmt.Sprintf("r%d", n)
	ops := make([]*op, 0, 2*len(s.files))
	for _, f := range s.files {
		src := norns.PosixPath(dsNVMe, "out/"+f.name)
		rel := dst + "/" + f.name
		push := p.newOp(task.Copy, src, norns.RemotePosixPath(nodePFS, dsPFS, rel))
		push.size, push.want, push.host = f.size, f.want, filepath.Join(p.pfs, rel)
		drain := p.newOp(task.Copy, src, norns.PosixPath(dsArch, rel))
		drain.size, drain.want, drain.host, drain.drain = f.size, f.want, filepath.Join(p.arch, rel), true
		ops = append(ops, push, drain)
	}
	// Both ops read the same source file; its reads belong to the push
	// (the drain's bytes move by CopyRange, keyed by its destination).
	if p.tr != nil {
		for _, o := range ops {
			if !o.drain {
				p.tr.bind(o.srcKey, o.key)
			}
		}
	}
	if err := p.timed(func() error { return p.stage(ops) }); err != nil {
		return err
	}
	p.verify(ops)
	if err := os.RemoveAll(filepath.Join(p.pfs, dst)); err != nil {
		return err
	}
	return os.RemoveAll(filepath.Join(p.arch, dst))
}

func (s *stageOut) finish(p *pass) error { return nil }

// ---------------------------------------------------------------------

// restage: the staging cache. The input set — 2 files sharing 32 MiB
// and 32 of about 1 MiB sharing 32 MiB — fits twice in the cache's
// 128 MiB bound. Set-up primes the cache with a cold stage-in to cur/.
// Each round then (1) re-stages the set into fresh destinations, all
// served from the cache, and (2) changes one segment of 2 seeded files
// on the PFS and re-stages the set onto cur/: a delta transfer in which
// only the changed segments cross the fabric.
type restage struct {
	files []stagedFile
	// hits and misses are the cache lookups the rounds must cause,
	// derived from the inputs alone.
	hits, misses uint64
}

const (
	restageCache   = 128 * mib
	restageChanged = 2
)

func (s *restage) cacheSize() int64 { return restageCache }

func (s *restage) inputs(p *pass) (err error) {
	s.files, err = layOut(p, filepath.Join(p.pfs, "rs"), p.g.fileSet("rs", 0, 2, 32*mib, 32, 32*mib))
	return err
}

func (s *restage) prime(p *pass) error {
	ops := pullOps(p, s.files, "rs", "cur")
	if err := p.stage(ops); err != nil {
		return err
	}
	for _, o := range ops {
		if o.status != task.Finished {
			return fmt.Errorf("priming task %d ended %v: %s", o.id, o.status, o.msg)
		}
	}
	return nil
}

func (s *restage) round(p *pass, n int) error {
	// (1) Fresh destinations: every segment is a cache hit.
	fresh := pullOps(p, s.files, "rs", "fresh")
	for _, o := range fresh {
		o.fabric = 0
		s.hits += uint64(segments(o.size))
	}
	if err := p.timed(func() error { return p.stage(fresh) }); err != nil {
		return err
	}
	p.verify(fresh)
	if err := os.RemoveAll(filepath.Join(p.nvme, "fresh")); err != nil {
		return err
	}
	// (2) A few source files change in one segment each (the PFS is
	// written behind the daemons' backs, as another job would).
	changed := make(map[int]int64)
	for len(changed) < restageChanged {
		i := p.g.rng.IntN(len(s.files))
		if _, dup := changed[i]; dup {
			continue
		}
		f := &s.files[i]
		b := p.g.rng.IntN(len(f.vers))
		sum, err := p.g.bump(filepath.Join(p.pfs, "rs", f.name), f.fileSpec, b)
		if err != nil {
			return err
		}
		f.want = sum
		changed[i] = min(int64(blockSize), f.size-int64(b)*blockSize)
		s.misses++
	}
	cur := pullOps(p, s.files, "rs", "cur")
	for i, o := range cur {
		o.fabric = changed[i]
	}
	if err := p.timed(func() error { return p.stage(cur) }); err != nil {
		return err
	}
	p.verify(cur)
	return s.checkCache(p)
}

// checkCache compares the daemon's cache counters with the lookups the
// inputs imply; the traced and untraced runs must both match them.
func (s *restage) checkCache(p *pass) error {
	st, err := p.c.ctl.StatusInfo()
	if err != nil {
		return err
	}
	hits, misses := st.CacheHits-p.cacheBase.CacheHits, st.CacheMisses-p.cacheBase.CacheMisses
	if hits != s.hits || misses != s.misses {
		p.problem("cache counted %d hits and %d misses, the inputs imply %d and %d", hits, misses, s.hits, s.misses)
		s.hits, s.misses = hits, misses // report each divergence once
	}
	return nil
}

func (s *restage) finish(p *pass) error { return nil }
