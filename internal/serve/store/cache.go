package store

import (
	"bytes"
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Cache is the disk tier of the daemon's two-tier result cache: record
// files content-addressed by key under objects/<hh>/, and nothing else.
// The objects directory is its own index. Open walks it once, and every
// regular file stored under its own key is an entry of the file's size.
// There are two ways in: Put encodes a record of this daemon's once,
// and PutWire stores the bytes a peer sent, as sent, once they decode
// as the record their key names. Both commit through commitFile, so the
// rename is the commit: a SIGKILL leaves either the whole object or a
// .tmp- file that the next open removes, and a restarted daemon serves
// yesterday's results without recomputing them. Integrity is checked
// where it matters, on read: an object that fails its CRC is dropped,
// never served.
//
// Eviction is by byte budget: snapshots first, shallowest first, then
// LRU (evictLocked). Across a restart, recency is write order: every put
// stamps its object's mtime from a strictly increasing clock, and the
// open walk orders entries by it. Reads are deduplicated per hash
// (singleflight): a thundering herd of identical submissions costs one
// disk read, everyone else blocks on it.
//
// Beside the LRU, the cache keeps an in-memory index of its snapshots
// (snapIndex), derived from their keys alone and rebuilt by the open
// walk, so a resume lookup and an eviction cost the same in a store of a
// thousand objects as in one of a hundred thousand: neither visits a
// result entry.
type Cache struct {
	dir      string // objects root
	maxBytes int64
	fsync    bool         // sync each object and its directory (Options.Fsync)
	clock    atomic.Int64 // the last mtime a put stamped, unix ns

	mu      sync.Mutex
	entries map[string]*list.Element // key -> element whose Value is *diskEntry
	order   *list.List               // front = most recently used
	bytes   int64
	snaps   snapIndex // every entry whose key is a snapshot key

	flight map[string]*flightCall // in-progress disk reads, per hash

	hits    atomic.Int64
	misses  atomic.Int64
	corrupt atomic.Int64 // objects rejected by CRC/decode and dropped
}

type diskEntry struct {
	hash string
	size int64
	snap *list.Element // its place in snapIndex.atDepth; nil for a result entry
}

// snapIndex indexes the snapshots among the cache's entries by what
// their keys say (ParseSnapshotKey), for the two questions only
// snapshots answer: which iterations a prefix has stored
// (DeepestSnapshot), and which snapshot eviction drops next
// (victimLocked). It lives in memory only; the keys in the objects
// directory are all it is built from. Cache.mu guards it.
type snapIndex struct {
	iters   map[string][]int   // prefix hash -> stored iterations, ascending
	depths  []int              // the distinct stored iterations, ascending
	atDepth map[int]*list.List // iteration -> its snapshots' *diskEntry, most recently used first
}

// add indexes d if its key is a snapshot key, as the most recently used
// snapshot at its depth.
func (x *snapIndex) add(d *diskEntry) {
	prefix, iter, ok := ParseSnapshotKey(d.hash)
	if !ok {
		return
	}
	iters := x.iters[prefix]
	i, _ := slices.BinarySearch(iters, iter)
	x.iters[prefix] = slices.Insert(iters, i, iter)
	at := x.atDepth[iter]
	if at == nil {
		at = list.New()
		x.atDepth[iter] = at
		i, _ := slices.BinarySearch(x.depths, iter)
		x.depths = slices.Insert(x.depths, i, iter)
	}
	d.snap = at.PushFront(d)
}

// remove unindexes d, if it is an indexed snapshot.
func (x *snapIndex) remove(d *diskEntry) {
	if d.snap == nil {
		return
	}
	prefix, iter, _ := ParseSnapshotKey(d.hash)
	iters := x.iters[prefix]
	i, _ := slices.BinarySearch(iters, iter)
	if iters = slices.Delete(iters, i, i+1); len(iters) > 0 {
		x.iters[prefix] = iters
	} else {
		delete(x.iters, prefix)
	}
	at := x.atDepth[iter]
	at.Remove(d.snap)
	d.snap = nil
	if at.Len() == 0 {
		delete(x.atDepth, iter)
		i, _ := slices.BinarySearch(x.depths, iter)
		x.depths = slices.Delete(x.depths, i, i+1)
	}
}

// touch marks d, if it is an indexed snapshot, the most recently used
// at its depth, as the LRU marks it in order.
func (x *snapIndex) touch(d *diskEntry) {
	if d.snap != nil {
		_, iter, _ := ParseSnapshotKey(d.hash)
		x.atDepth[iter].MoveToFront(d.snap)
	}
}

// shallowest returns the least recently used of the shallowest stored
// snapshots, or nil when none is stored.
func (x *snapIndex) shallowest() *diskEntry {
	if len(x.depths) == 0 {
		return nil
	}
	return x.atDepth[x.depths[0]].Back().Value.(*diskEntry)
}

// flightCall is one in-flight disk read shared by concurrent getters.
type flightCall struct {
	done chan struct{}
	e    *Entry // nil on a miss
}

// openCache opens (or initializes) the disk cache under dir. One walk of
// objects/<hh>/ seeds the LRU, the newest write at the front, and the
// snapshot index in the same order. Anything else the walk meets there,
// such as the .tmp- file of an interrupted put, is removed, and so is
// the cache.idx that older daemons kept beside the objects.
func openCache(dir string, maxBytes int64, fsync bool) (*Cache, error) {
	c := &Cache{
		dir:      filepath.Join(dir, "objects"),
		maxBytes: maxBytes,
		fsync:    fsync,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		snaps:    snapIndex{iters: make(map[string][]int), atDepth: make(map[int]*list.List)},
		flight:   make(map[string]*flightCall),
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.Remove(filepath.Join(dir, "cache.idx")); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	prefixes, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	type object struct {
		key         string
		size, mtime int64
	}
	var found []object
	for _, p := range prefixes {
		if !p.IsDir() {
			continue
		}
		sub := filepath.Join(c.dir, p.Name())
		files, err := os.ReadDir(sub)
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			path := filepath.Join(sub, f.Name())
			fi, err := f.Info()
			if err == nil && fi.Mode().IsRegular() && validToken(f.Name()) && c.objectPath(f.Name()) == path {
				found = append(found, object{f.Name(), fi.Size(), fi.ModTime().UnixNano()})
				continue
			}
			os.Remove(path)
		}
	}
	// Oldest first, so each PushFront leaves the newest write in front.
	// Keys break ties among objects older daemons wrote unstamped.
	sort.Slice(found, func(a, b int) bool {
		if found[a].mtime != found[b].mtime {
			return found[a].mtime < found[b].mtime
		}
		return found[a].key < found[b].key
	})
	for _, o := range found {
		d := &diskEntry{hash: o.key, size: o.size}
		c.entries[o.key] = c.order.PushFront(d)
		c.snaps.add(d)
		c.bytes += o.size
		c.clock.Store(o.mtime)
	}
	return c, nil
}

func (c *Cache) objectPath(hash string) string {
	prefix := hash
	if len(prefix) > 2 {
		prefix = prefix[:2]
	}
	return filepath.Join(c.dir, prefix, hash)
}

// Get returns the entry stored for hash, verifying its CRC. A corrupt
// or vanished entry is dropped and reported as a miss — the store never
// serves bytes it cannot vouch for. Concurrent gets of the same hash
// share one disk read. Snapshot keys are a plain miss here: their
// objects are EZSNAP1 records, which GetSnapshot decodes.
func (c *Cache) Get(hash string) (*Entry, bool) {
	if IsSnapshotKey(hash) {
		c.misses.Add(1)
		return nil, false
	}
	c.mu.Lock()
	if f, inflight := c.flight[hash]; inflight {
		c.mu.Unlock()
		<-f.done
		if f.e != nil {
			c.hits.Add(1)
		} else {
			c.misses.Add(1)
		}
		return f.e, f.e != nil
	}
	f := &flightCall{done: make(chan struct{})}
	c.flight[hash] = f
	c.mu.Unlock()

	if _, rec, ok := c.fetch(hash); ok {
		f.e = rec.(*Entry)
	}
	c.mu.Lock()
	delete(c.flight, hash)
	c.mu.Unlock()
	close(f.done)
	return f.e, f.e != nil
}

// fetch reads the object stored under key, counting the hit or miss. An
// object that fails to decode as the record its key names is counted
// corrupt and deleted; one that vanished is a plain miss (a concurrent
// eviction or delete won the race between the lookup and the read).
func (c *Cache) fetch(key string) ([]byte, Record, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		c.order.MoveToFront(el)
		c.snaps.touch(el.Value.(*diskEntry))
	}
	c.mu.Unlock()
	if ok {
		data, err := os.ReadFile(c.objectPath(key))
		var rec Record
		if err == nil {
			rec, err = decodeObject(key, data)
		}
		if err == nil {
			c.hits.Add(1)
			return data, rec, true
		}
		if !os.IsNotExist(err) {
			c.corrupt.Add(1)
			c.Delete(key)
		}
	}
	c.misses.Add(1)
	return nil, nil, false
}

// Put encodes r once, stores the bytes under its key, evicting
// least-recently-used objects beyond the byte budget, and returns them
// for replication. They are this build's own encoding, so they are not
// decoded again. A snapshot is just another object, except that
// eviction sacrifices snapshots (shallowest first) before any result.
func (c *Cache) Put(r Record) ([]byte, error) {
	key := r.Key()
	if _, isSnap := r.(*Snapshot); isSnap != IsSnapshotKey(key) {
		return nil, fmt.Errorf("store: key %q is outside its record kind's key space", key)
	}
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		return nil, err
	}
	if err := c.store(key, buf.Bytes()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// PutWire stores the encoded record a peer sent under key, as sent,
// once it decodes as the record key names (the check every read makes);
// otherwise it writes nothing and returns an error wrapping
// ErrInvalidRecord. Unlike a re-encoding, the bytes keep what this
// build's decoder does not know, such as a result field a newer peer
// added.
func (c *Cache) PutWire(key string, data []byte) error {
	if _, err := decodeObject(key, data); err != nil {
		return err
	}
	return c.store(key, data)
}

// store is the landing path of Put and PutWire: data is committed under
// key, stamped with the next write time, then accounted against the
// byte budget.
func (c *Cache) store(key string, data []byte) error {
	if !validToken(key) {
		return fmt.Errorf("store: invalid object key %q", key)
	}
	size := int64(len(data))
	if size > maxPayload {
		// The decoders refuse payloads beyond maxPayload, so a bigger
		// object (possible with an unbounded budget) could never be read
		// back: refuse it up front.
		return fmt.Errorf("store: entry %s (%d bytes) exceeds the on-disk record limit (%d)", key, size, int64(maxPayload))
	}
	if c.maxBytes > 0 && size > c.maxBytes {
		return fmt.Errorf("store: entry %s (%d bytes) exceeds the cache budget (%d)", key, size, c.maxBytes)
	}
	path := c.objectPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	// The mtime is the object's recency at the next open.
	if err := commitFile(path, data, c.stamp(), c.fsync); err != nil {
		return err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Content-addressed: same key, same record. Refresh recency and
		// byte accounting (the bytes may differ if an older encoder or a
		// newer peer wrote them).
		d := el.Value.(*diskEntry)
		c.bytes += size - d.size
		d.size = size
		c.order.MoveToFront(el)
		c.snaps.touch(d)
	} else {
		d := &diskEntry{hash: key, size: size}
		c.entries[key] = c.order.PushFront(d)
		c.snaps.add(d)
		c.bytes += size
	}
	c.evictLocked()
	return nil
}

// stamp returns the next write time: the wall clock, nudged past the
// previous stamp, so no two puts tie whatever the granularity of the
// timestamps the filesystem would assign itself.
func (c *Cache) stamp() time.Time {
	for {
		last := c.clock.Load()
		next := max(time.Now().UnixNano(), last+1)
		if c.clock.CompareAndSwap(last, next) {
			return time.Unix(0, next)
		}
	}
}

// GetSnapshot returns the checkpoint stored for (prefixHash, iter),
// verifying its CRC. Corrupt or mismatched snapshots are dropped and
// reported as missing, like Get. No singleflight: snapshot reads happen
// once per resumed job, not per thundering herd.
func (c *Cache) GetSnapshot(prefixHash string, iter int) (*Snapshot, bool) {
	_, rec, ok := c.fetch(SnapshotKey(prefixHash, iter))
	if !ok {
		return nil, false
	}
	return rec.(*Snapshot), true
}

// DeepestSnapshot returns the deepest stored checkpoint of prefixHash
// at or below maxIter — the best resume point for a run of maxIter
// iterations. Corrupt candidates are dropped and the next-deepest is
// tried, so one bad object degrades the resume, never fails it. The
// candidates come from the snapshot index: the lookup holds the lock
// for a map lookup and a copy of the prefix's iterations, whatever the
// number of stored objects, and only the reads touch the disk.
func (c *Cache) DeepestSnapshot(prefixHash string, maxIter int) (*Snapshot, bool) {
	c.mu.Lock()
	iters := c.snaps.iters[prefixHash]
	n := sort.Search(len(iters), func(i int) bool { return iters[i] > maxIter })
	iters = slices.Clone(iters[:n])
	c.mu.Unlock()
	for i := len(iters) - 1; i >= 0; i-- {
		if s, ok := c.GetSnapshot(prefixHash, iters[i]); ok {
			return s, true
		}
	}
	return nil, false
}

// GetWire returns the encoded object bytes stored under a key — entry or
// snapshot, whichever kind the key names — once they have decoded as
// that record; a failing object is dropped like one Get meets. This is
// the cluster replication read path, PutWire the write path: peers
// exchange file bytes as they are, and the key tells the receiver which
// decoder checks them.
func (c *Cache) GetWire(key string) ([]byte, bool) {
	data, _, ok := c.fetch(key)
	return data, ok
}

// Delete removes an entry and its file (used for corrupt objects and
// tests).
func (c *Cache) Delete(hash string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deleteLocked(hash)
}

func (c *Cache) deleteLocked(hash string) {
	el, ok := c.entries[hash]
	if !ok {
		return
	}
	d := el.Value.(*diskEntry)
	c.bytes -= d.size
	c.snaps.remove(d)
	c.order.Remove(el)
	delete(c.entries, hash)
	os.Remove(c.objectPath(hash))
}

// evictLocked drops victimLocked's pick until the cache is under budget,
// keeping at least one object. Each pick costs the same whatever the
// number of stored objects: the front of the snapshot index, or the back
// of the LRU.
func (c *Cache) evictLocked() {
	if c.maxBytes <= 0 {
		return
	}
	for c.bytes > c.maxBytes && c.order.Len() > 1 {
		c.deleteLocked(c.victimLocked().hash)
	}
}

// victimLocked is the entry eviction drops next (the cache must hold
// one). Snapshots go first, shallowest iteration first — a shallow
// checkpoint saves the least recompute, and results are never
// sacrificed while a rebuildable checkpoint remains — and among equally
// shallow snapshots, whatever their prefixes, the least recently used.
// Only when no snapshots are left does plain LRU take over.
func (c *Cache) victimLocked() *diskEntry {
	if d := c.snaps.shallowest(); d != nil {
		return d
	}
	return c.order.Back().Value.(*diskEntry)
}

// Hashes returns the hashes of every live entry, most recently used
// first — the work list of the cluster rebalancer, which re-homes
// entries after a ring change (content addressing makes each transfer
// self-validating: the key is the checksum of what it names).
func (c *Cache) Hashes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*diskEntry).hash)
	}
	return out
}

// Len returns the number of live disk entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes returns the total size of live entry files.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Corrupt reports how many objects reads rejected and dropped.
func (c *Cache) Corrupt() int64 { return c.corrupt.Load() }
