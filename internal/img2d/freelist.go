package img2d

import "sync"

// FreeList recycles []T buffers, one free list per length: the
// per-size caches of a resource allocator (the "Parallel Fastpath"
// chapter of McKenney's book). A run takes its image and board buffers
// from a free list and hands them back when it ends, so a service that
// computes thousands of short runs reuses a handful of buffers instead
// of allocating, and collecting, several images per run.
//
// Each length keeps its buffers in a sync.Pool, so the garbage
// collector bounds the lists: a buffer left idle across two collections
// is freed. The zero value is ready to use, and every method is safe
// for concurrent use.
type FreeList[T any] struct {
	pools sync.Map // length → *sync.Pool of *[]T
}

// Get returns a zeroed buffer of n elements: a recycled one when the
// list for that length holds one, a new one otherwise. A caller sees
// no difference from make([]T, n).
func (f *FreeList[T]) Get(n int) []T {
	if p, ok := f.pools.Load(n); ok {
		if s, ok := p.(*sync.Pool).Get().(*[]T); ok {
			clear(*s)
			return *s
		}
	}
	return make([]T, n)
}

// Put hands buf back for a later Get of its length. Nothing may touch
// buf afterwards: the next Get gives it to another owner.
func (f *FreeList[T]) Put(buf []T) {
	if len(buf) == 0 {
		return
	}
	p, ok := f.pools.Load(len(buf))
	if !ok {
		p, _ = f.pools.LoadOrStore(len(buf), new(sync.Pool))
	}
	p.(*sync.Pool).Put(&buf)
}

// pixelLists is the free list of image pixels, one list per dimension.
var pixelLists FreeList[Pixel]

// lease is New drawing on a free list of dim x dim images: the image is
// zeroed, like New's, but its pixels may be a buffer an earlier image
// handed back through Release.
func lease(dim int) *Image {
	if dim <= 0 {
		return New(dim) // panics, with New's message
	}
	return &Image{dim: dim, pix: pixelLists.Get(dim * dim)}
}

// Release hands the image's pixels back to the free list of its
// dimension, for a later NewBuffers. The image is empty afterwards: any
// access panics instead of reading pixels another image now owns. Row
// slices taken before the release must not be used either. Release
// only images whose pixels nothing else references: not one made by
// FromPixels over a caller's slice. Releasing an image twice is
// harmless.
func (im *Image) Release() {
	pixelLists.Put(im.pix)
	im.pix = nil
}
