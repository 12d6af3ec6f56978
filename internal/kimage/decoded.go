// Decoded-program plumbing: the kernel image owns the pre-decoded form of
// its own text (internal/bbcache). The linked text is immutable, so one
// decode serves every machine cloned from the image: Decoded() builds once
// and every later caller, on any harness worker goroutine, shares the
// result.

package kimage

import (
	"sync"

	"repro/internal/bbcache"
)

// decodedOnce is the memoization cell (declared here to keep image.go free
// of the bbcache dependency).
type decodedOnce struct {
	once sync.Once
	prog *bbcache.Program
}

// Decoded returns the pre-decoded basic-block program for the linked text,
// building it on first use. The result is immutable and shared: concurrent
// callers (cloned machines on harness workers) all get the same program.
func (img *Image) Decoded() *bbcache.Program {
	img.decoded.once.Do(func() {
		entries := make([]uint64, len(img.funcs))
		for i, f := range img.funcs {
			entries[i] = f.VA
		}
		img.decoded.prog = bbcache.Build(img.base, img.flat, img.valid, entries)
	})
	return img.decoded.prog
}
