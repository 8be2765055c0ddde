package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
)

// Inputs are made from the workload seed alone: every byte of every
// generated file is a ChaCha8 stream keyed by (seed, file, block,
// version), so the generator can recompute any file's SHA-256 without
// asking the program, and the same seed always yields the same files.

// blockSize is the generator's content unit. It equals the daemon's
// default transfer segment size (checked at start-up), so a file
// "changed in one segment" has exactly one block at a new version.
const blockSize = 8 << 20

const (
	kib = 1 << 10
	mib = 1 << 20
)

// fileSpec is one generated file: its name, size and the content
// version of each block.
type fileSpec struct {
	name string
	id   int
	size int64
	vers []uint32
}

func newFile(name string, id int, size int64) *fileSpec {
	return &fileSpec{name: name, id: id, size: size, vers: make([]uint32, (size+blockSize-1)/blockSize)}
}

// gen derives all inputs of one run from the seed.
type gen struct {
	seed uint64
	rng  *rand.Rand
}

func newGen(seed uint64) *gen {
	return &gen{seed: seed, rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

func (g *gen) stream(file, block int, ver uint32) *rand.ChaCha8 {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[0:], g.seed)
	binary.LittleEndian.PutUint64(key[8:], uint64(file))
	binary.LittleEndian.PutUint64(key[16:], uint64(block))
	binary.LittleEndian.PutUint64(key[24:], uint64(ver))
	return rand.NewChaCha8(key)
}

// content streams f's bytes to w in 1 MiB chunks.
func (g *gen) content(w io.Writer, f *fileSpec) error {
	buf := make([]byte, mib)
	for b := range f.vers {
		src := g.stream(f.id, b, f.vers[b])
		left := min(int64(blockSize), f.size-int64(b)*blockSize)
		for left > 0 {
			n := min(left, int64(len(buf)))
			_, _ = src.Read(buf[:n]) // ChaCha8.Read never fails
			if _, err := w.Write(buf[:n]); err != nil {
				return err
			}
			left -= n
		}
	}
	return nil
}

// digest is the SHA-256 of f's current content, computed by the
// generator alone.
func (g *gen) digest(f *fileSpec) []byte {
	h := sha256.New()
	_ = g.content(h, f) // hash.Hash.Write never fails
	return h.Sum(nil)
}

// write creates path with f's content and returns its digest.
func (g *gen) write(path string, f *fileSpec) ([]byte, error) {
	out, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	if err := g.content(io.MultiWriter(out, h), f); err != nil {
		out.Close()
		return nil, fmt.Errorf("generate %s: %w", path, err)
	}
	if err := out.Close(); err != nil {
		return nil, err
	}
	return h.Sum(nil), nil
}

// bump moves block b of f to its next version and rewrites that block
// of the file at path in place. It returns the new digest.
func (g *gen) bump(path string, f *fileSpec, b int) ([]byte, error) {
	f.vers[b]++
	off := int64(b) * blockSize
	n := min(int64(blockSize), f.size-off)
	buf := make([]byte, n)
	_, _ = g.stream(f.id, b, f.vers[b]).Read(buf)
	out, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	if _, err := out.WriteAt(buf, off); err != nil {
		out.Close()
		return nil, err
	}
	if err := out.Close(); err != nil {
		return nil, err
	}
	return g.digest(f), nil
}

// split divides total into n seeded parts, each within ±spread of the
// mean, summing exactly to total: the seed moves the file-size mix but
// not the bytes a set holds.
func (g *gen) split(total int64, n int, spread float64) []int64 {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 - spread + 2*spread*g.rng.Float64()
		sum += w[i]
	}
	out := make([]int64, n)
	var used int64
	for i := range out {
		if i == n-1 {
			out[i] = total - used
			break
		}
		out[i] = int64(float64(total) * w[i] / sum)
		used += out[i]
	}
	return out
}

// sizeSpread is how far a file's size may stray from its group's mean.
// The largest file of a set bounds a round's makespan, so a wider
// spread turns the seed into the dominant term of a metric's spread
// across runs.
const sizeSpread = 0.10

// fileSet makes a staging set: nBig files sharing bigTotal bytes, then
// nSmall files sharing smallTotal bytes. The order is fixed — the seed
// only sizes the files — so every seed queues the same shape of work.
// IDs start at base so distinct sets never share content.
func (g *gen) fileSet(prefix string, base, nBig int, bigTotal int64, nSmall int, smallTotal int64) []*fileSpec {
	var sizes []int64
	sizes = append(sizes, g.split(bigTotal, nBig, sizeSpread)...)
	sizes = append(sizes, g.split(smallTotal, nSmall, sizeSpread)...)
	files := make([]*fileSpec, len(sizes))
	for i, sz := range sizes {
		files[i] = newFile(fmt.Sprintf("%s%03d.dat", prefix, i), base+i, sz)
	}
	return files
}

// payload is the inline buffer of one memory→node-local copy.
func (g *gen) payload(id int, size int) []byte {
	buf := make([]byte, size)
	_, _ = g.stream(id, 0, 0).Read(buf)
	return buf
}
