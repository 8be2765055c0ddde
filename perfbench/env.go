package main

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/ngioproject/norns-go/internal/api/nornsctl"
	"github.com/ngioproject/norns-go/internal/storage"
	"github.com/ngioproject/norns-go/internal/urd"
)

// The benchmark's cluster: a compute node ("cn0") whose urd runs with a
// journal, AF_UNIX user and control sockets and a node-local NVMe
// dataspace plus a second local "archive" dataspace, and a "PFS" node
// ("pfs0") exporting the parallel file system as a directory
// dataspace. Both daemons speak the ofi+tcp fabric on 127.0.0.1, so
// every node-to-node byte crosses the host's loopback interface.
const (
	nodeCN   = "cn0"
	nodePFS  = "pfs0"
	dsNVMe   = "nvme0://"
	dsArch   = "arch0://"
	dsPFS    = "lustre://"
	jobID    = 1
	fabric   = "ofi+tcp"
	loopback = "127.0.0.1:0"
)

type cluster struct {
	sock string // the work directory relative to the working directory (short socket paths)

	nvme, arch, pfs string // host directories behind the dataspaces

	res      *urd.StaticResolver
	cn, pfsd *urd.Daemon
	ctl      *nornsctl.Client // control client on the compute node
}

// hostDirs creates the dataspaces' host directories under dir, so the
// generator can lay out inputs before any daemon starts.
func hostDirs(dir string) (nvme, arch, pfs string, err error) {
	nvme, arch, pfs = filepath.Join(dir, "nvme"), filepath.Join(dir, "arch"), filepath.Join(dir, "pfs")
	for _, d := range []string{nvme, arch, pfs, filepath.Join(dir, "state")} {
		if err = os.MkdirAll(d, 0o755); err != nil {
			return
		}
	}
	return
}

// startCluster starts both daemons, opens the compute node's journal,
// starts the fabric listeners and registers dataspaces, the job and
// this process — the set-up every workload times. cacheSize > 0 turns
// the compute node's staging cache on with that bound.
func startCluster(dir string, cacheSize int64, tr *tracer) (*cluster, error) {
	c := &cluster{res: urd.NewStaticResolver()}
	var err error
	if c.nvme, c.arch, c.pfs, err = hostDirs(dir); err != nil {
		return nil, err
	}
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if c.sock, err = filepath.Rel(wd, dir); err != nil {
		return nil, err
	}
	var hooks urd.Hooks
	if tr != nil {
		hooks.WrapFS = func(id string, fs storage.FS) storage.FS { return &traceFS{inner: fs, ds: id, t: tr} }
	}
	c.pfsd, err = urd.New(urd.Config{
		NodeName:      nodePFS,
		ControlSocket: filepath.Join(c.sock, "p.sock"),
		Fabric:        fabric,
		FabricAddr:    loopback,
		Resolver:      c.res,
		Hooks:         hooks,
	})
	if err != nil {
		return nil, fmt.Errorf("start pfs daemon: %w", err)
	}
	if tr != nil {
		hooks.AfterSegment = tr.afterSegment
	}
	cfg := urd.Config{
		NodeName:      nodeCN,
		UserSocket:    filepath.Join(c.sock, "u.sock"),
		ControlSocket: filepath.Join(c.sock, "c.sock"),
		Fabric:        fabric,
		FabricAddr:    loopback,
		Resolver:      c.res,
		StateDir:      filepath.Join(dir, "state"),
		Hooks:         hooks,
	}
	if cacheSize > 0 {
		cfg.CacheDir = filepath.Join(dir, "cas")
		cfg.CacheSize = cacheSize
	}
	c.cn, err = urd.New(cfg)
	if err != nil {
		c.pfsd.Close()
		return nil, fmt.Errorf("start compute daemon: %w", err)
	}
	c.res.Set(nodePFS, c.pfsd.FabricAddr())
	c.res.Set(nodeCN, c.cn.FabricAddr())
	if tr != nil {
		// No task has been submitted yet, so no worker reads the
		// executor's Remote while it is swapped.
		ex := c.cn.Executor()
		ex.Env.Net = wrapRemote(ex.Env.Net, tr)
	}
	if err := c.register(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) register() error {
	var err error
	if c.ctl, err = nornsctl.Dial(filepath.Join(c.sock, "c.sock")); err != nil {
		return err
	}
	pctl, err := nornsctl.Dial(filepath.Join(c.sock, "p.sock"))
	if err != nil {
		return err
	}
	defer pctl.Close()
	if err := pctl.RegisterDataspace(nornsctl.DataspaceDef{ID: dsPFS, Backend: nornsctl.BackendParallelFS, Mount: c.pfs}); err != nil {
		return fmt.Errorf("register %s: %w", dsPFS, err)
	}
	for _, d := range []nornsctl.DataspaceDef{
		{ID: dsNVMe, Backend: nornsctl.BackendNVM, Mount: c.nvme},
		{ID: dsArch, Backend: nornsctl.BackendPosixDir, Mount: c.arch},
	} {
		if err := c.ctl.RegisterDataspace(d); err != nil {
			return fmt.Errorf("register %s: %w", d.ID, err)
		}
	}
	if err := c.ctl.RegisterJob(nornsctl.JobDef{
		ID: jobID, Hosts: []string{nodeCN},
		Limits: []nornsctl.JobLimit{{Dataspace: dsNVMe}, {Dataspace: dsArch}},
	}); err != nil {
		return fmt.Errorf("register job: %w", err)
	}
	if err := c.ctl.AddProcess(jobID, nornsctl.ProcDef{PID: uint64(os.Getpid()), UID: uint64(os.Getuid()), GID: uint64(os.Getgid())}); err != nil {
		return fmt.Errorf("add process: %w", err)
	}
	return nil
}

// userSocket is the compute node's user socket path.
func (c *cluster) userSocket() string { return filepath.Join(c.sock, "u.sock") }

// close stops both daemons. It is safe to call twice.
func (c *cluster) close() {
	if c.ctl != nil {
		c.ctl.Close()
		c.ctl = nil
	}
	if c.cn != nil {
		c.cn.Close()
		c.cn = nil
	}
	if c.pfsd != nil {
		c.pfsd.Close()
		c.pfsd = nil
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
