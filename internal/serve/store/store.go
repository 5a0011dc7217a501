// Package store is the persistence layer under easypapd (internal/serve):
// a disk-backed, content-addressed result cache and a write-ahead job
// journal sharing one data directory. It exists so a daemon restart — a
// deploy, a crash, an OOM kill — costs a disk read per previously
// computed config instead of a recompute, and so the parameter sweeps
// that were in flight are resumed instead of silently lost (the PaPaS
// requirement: long-lived studies must survive the infrastructure).
//
// Layout of a data directory:
//
//	<dir>/objects/<hh>/<key>  entry and snapshot files (EZSTORE1, EZSNAP1)
//	<dir>/journal.log         append-only CRC'd write-ahead job log
//
// The objects directory is the cache's only on-disk index: opening the
// store walks it once (building, from the keys alone, the in-memory
// index of snapshots that resume lookups and eviction read), and an
// object is committed by the rename that puts it under its key. Every record format is ASCII-headed and CRC-32C
// checked (see format.go; pinned by testdata/store.golden and fuzzed by
// FuzzEntryDecode / FuzzSnapshotDecode / FuzzJournalReplay), and the
// journal replays after arbitrary truncation. Durability is
// crash-consistent unless Options.Fsync is set: a SIGKILL loses nothing
// (the bytes are in the page cache), a power cut may lose the journal's
// tail or recent objects, and CRC checks make either case a clean
// prefix or a miss, never a corrupt serve.
package store

import (
	"os"
	"path/filepath"
	"time"
)

// DefaultMaxBytes is the disk-cache budget when Options.MaxBytes is 0
// (256 MiB — thousands of entries at typical result+frame sizes).
const DefaultMaxBytes = 256 << 20

// Options tunes a Store.
type Options struct {
	// MaxBytes bounds the disk cache in bytes (DefaultMaxBytes if 0;
	// negative means unbounded).
	MaxBytes int64
	// Fsync upgrades durability from crash-consistent to power-fail
	// safe: an object file is synced before the rename that publishes
	// it and its directory after, so the rename itself is durable when
	// the put returns, and journal records are synced before the call
	// that wrote them returns. The on-disk formats are unchanged —
	// fsync only narrows the window in which a power cut (not a mere
	// SIGKILL) can lose the tail. Costs one fsync per journaled
	// transition and two per spilled object; off by default.
	Fsync bool
}

// Store bundles the two durable structures of one data directory.
type Store struct {
	dir     string
	Cache   *Cache
	Journal *Journal
}

// Open opens (creating if needed) the data directory and recovers both
// structures: the objects directory is walked into the cache, and the
// journal is replayed, compacted, and left open for appending.
func Open(dir string, opts Options) (*Store, error) {
	if opts.MaxBytes == 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.MaxBytes < 0 {
		opts.MaxBytes = 0 // unbounded
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cache, err := openCache(dir, opts.MaxBytes, opts.Fsync)
	if err != nil {
		return nil, err
	}
	journal, err := openJournal(filepath.Join(dir, "journal.log"), opts.Fsync)
	if err != nil {
		return nil, err
	}
	return &Store{dir: dir, Cache: cache, Journal: journal}, nil
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Close releases the journal's file handle. Objects already written
// stay valid; Close is not what makes anything durable (the rename and
// CRC replay are).
func (s *Store) Close() error { return s.Journal.close() }

// tmpPrefix starts the name of every temp file commitFile writes; Open
// removes the ones a crash leaves.
const tmpPrefix = ".tmp-"

// commitFile is how every file of a data directory is written: data
// goes to a fresh temp file beside path, stamped with mtime unless it is
// zero, synced under fsync, and renamed over path — the rename is the
// commit — after which, under fsync, the directory is synced so the
// rename is durable too. A crash leaves the old file or the whole new
// one under path, and at most a tmpPrefix file beside it.
func commitFile(path string, data []byte, mtime time.Time, fsync bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tmpPrefix+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil && !mtime.IsZero() {
		err = os.Chtimes(tmp.Name(), mtime, mtime)
	}
	if err == nil && fsync {
		// A power cut after the commit must not leave an empty or torn
		// file under path.
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if fsync {
		return syncDir(dir)
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
