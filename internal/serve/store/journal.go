package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"easypap/internal/core"
)

// Journal is the write-ahead job log: every admitted job appends an
// open record before it is queued, every terminal transition appends a
// done record. After a crash the open-without-done set is exactly the
// jobs that were queued or running — the manager re-enqueues them (or
// marks them interrupted) under their original ids, so clients polling
// across the restart keep working.
type Journal struct {
	path  string
	fsync bool // sync commit records before returning (Options.Fsync)

	mu        sync.Mutex
	f         *os.File
	open      map[string]JournalRec // id -> last open record without a done
	order     []string              // open ids in admission order; closed ones linger until compaction
	recovered []JournalRec          // open set found at Open time, in file order
	maxID     int64                 // highest numeric "j-NNNNNN" id ever journaled
	doneSince int                   // done records since the last compaction
}

// openJournal replays (and keeps appending to) the journal at path.
func openJournal(path string, fsync bool) (*Journal, error) {
	j := &Journal{path: path, fsync: fsync, open: make(map[string]JournalRec)}
	if data, err := os.ReadFile(path); err == nil {
		// One decode pass: every record's id feeds the high-water mark,
		// then the shared reduction derives the open set.
		recs := ReadJournal(bytes.NewReader(data))
		for _, rec := range recs {
			j.noteID(rec.ID)
		}
		j.recovered = reduceOpen(recs)
		for _, rec := range j.recovered {
			j.open[rec.ID] = rec
			j.order = append(j.order, rec.ID)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	// A crash mid-rewrite may leave its temp file beside the log (or,
	// from older daemons, journal.log.tmp). Removing it is best effort:
	// a leftover is never read.
	dir, base := filepath.Split(path)
	files, _ := os.ReadDir(dir)
	for _, f := range files {
		if name := f.Name(); name == base+".tmp" || strings.HasPrefix(name, tmpPrefix+base+"-") {
			os.Remove(filepath.Join(dir, name))
		}
	}
	// Start each daemon generation from a compact journal.
	if err := j.compactLocked(); err != nil {
		return nil, err
	}
	return j, nil
}

// rewrite replaces the log with data through commitFile, then opens a
// fresh append handle on the committed log.
func (j *Journal) rewrite(data []byte) error {
	if err := commitFile(j.path, data, time.Time{}, j.fsync); err != nil {
		return err
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if j.f != nil {
		j.f.Close()
	}
	j.f = f
	return nil
}

// hwmRecord renders the id high-water mark as a done record for the
// highest id ever journaled ("hwm" state, a no-op for the open set but
// seen by noteID on replay). Without it, compaction — which keeps only
// open records — would forget completed jobs' ids, a restarted manager
// would restart its id sequence, and a client still polling a
// pre-restart id could be handed a different submitter's job.
func (j *Journal) hwmRecord() []byte {
	if j.maxID <= 0 {
		return nil
	}
	return []byte(encodeJournalDone(fmt.Sprintf("j-%06d", j.maxID), "hwm"))
}

// noteID tracks the numeric suffix of manager-style job ids so a
// restarted manager resumes its id sequence past every journaled job.
func (j *Journal) noteID(id string) {
	if rest, ok := strings.CutPrefix(id, "j-"); ok {
		if n, err := strconv.ParseInt(rest, 10, 64); err == nil && n > j.maxID {
			j.maxID = n
		}
	}
}

// Recovered returns the jobs that were open when the journal was last
// opened — the recovery work list, in original admission order.
func (j *Journal) Recovered() []JournalRec {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]JournalRec, len(j.recovered))
	copy(out, j.recovered)
	return out
}

// MaxID returns the highest numeric job id ever journaled.
func (j *Journal) MaxID() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.maxID
}

// OpenCount returns the number of currently open (journaled,
// non-terminal) jobs.
func (j *Journal) OpenCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.open)
}

// Begin journals a job admission. It must be called before the job is
// made runnable — write-ahead, so a crash after Begin recovers the job
// and a crash before it loses nothing but the not-yet-acknowledged
// submission. submitted is the client's original submit time (unix ns;
// 0 = unknown), persisted so a recovered job keeps its queue age.
func (j *Journal) Begin(id, hash string, frames bool, cfg core.Config, submitted int64) error {
	if !validToken(id) || !validToken(hash) {
		return fmt.Errorf("store: invalid journal key id=%q hash=%q", id, hash)
	}
	payload, err := json.Marshal(journalOpenPayload{Config: cfg, Submitted: submitted})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.noteID(id)
	if _, isOpen := j.open[id]; !isOpen {
		j.order = append(j.order, id)
	}
	if _, err := j.f.WriteString(encodeJournalOpen(id, hash, frames, payload)); err != nil {
		return err
	}
	if j.fsync {
		// Write-ahead means nothing across a power cut unless the open
		// record is on stable storage before the job becomes runnable.
		if err := j.f.Sync(); err != nil {
			return err
		}
	}
	j.open[id] = JournalRec{Op: "open", ID: id, Hash: hash, Frames: frames, Config: cfg, Submitted: submitted}
	return nil
}

// End journals a job's terminal state and triggers compaction once done
// records dominate the log.
func (j *Journal) End(id, state string) error {
	if !validToken(id) || !validToken(state) {
		return fmt.Errorf("store: invalid journal end id=%q state=%q", id, state)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.WriteString(encodeJournalDone(id, state)); err != nil {
		return err
	}
	if j.fsync {
		if err := j.f.Sync(); err != nil {
			return err
		}
	}
	delete(j.open, id)
	j.doneSince++
	if j.doneSince > len(j.open)+64 {
		// Best effort: a failed compaction leaves the longer log, which
		// replays to the same open set.
		_ = j.compactLocked()
	}
	return nil
}

// compactLocked rewrites the journal as the id high-water mark followed
// by the open records in admission order, the order Recovered promises
// the next daemon generation. The hwm record goes FIRST: it is a done
// record, and a done following an open for the same id (the highest
// open job) would erase that job from replay.
func (j *Journal) compactLocked() error {
	recs := make([]JournalRec, 0, len(j.open))
	listed := make(map[string]bool, len(j.open))
	order := j.order[:0]
	for _, id := range j.order {
		rec, ok := j.open[id]
		if !ok || listed[id] {
			continue // closed, or reopened after a done: listed once
		}
		listed[id] = true
		recs = append(recs, rec)
		order = append(order, id)
	}
	j.order = order
	data, err := reencodeJournal(recs)
	if err != nil {
		return err
	}
	if err := j.rewrite(append(j.hwmRecord(), data...)); err != nil {
		return err
	}
	j.doneSince = 0
	return nil
}

func (j *Journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
