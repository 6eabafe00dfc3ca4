package db

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"corgipile/internal/sqlparse"
	"corgipile/internal/storage"
)

// Replication hooks. A replica session is the same Session the rest of the
// stack uses, driven by records shipped from a primary instead of by SQL:
// every incoming record is made durable in the replica's own WAL (with the
// primary's LSNs preserved) and then applied through the same
// applyWALRecord path recovery uses, so the replica's directory is at all
// times a valid single-node WAL directory. PROMOTE and a plain restart
// both go through unchanged crash recovery — that is what makes a promoted
// replica's TRAIN ... resume bit-identical to recovering the primary.

// ErrReadOnly rejects mutating statements on a replica; PROMOTE clears it.
var ErrReadOnly = errors.New("session is a read-only replica (PROMOTE to enable writes)")

// SetReadOnly flips the session's replica mode. While set, every mutating
// statement (DDL, ingestion, TRAIN, model loads, SQL CHECKPOINT) fails with
// ErrReadOnly; reads — SHOW, PREDICT, EXPLAIN, ANALYZE, SAVE MODEL — and
// the internal replication apply path still work.
func (s *Session) SetReadOnly(v bool) { s.readOnly.Store(v) }

// ReadOnly reports whether the session rejects mutating statements.
func (s *Session) ReadOnly() bool { return s.readOnly.Load() }

// mutatingKind names st for the read-only error when it would mutate the
// catalog or the log.
func mutatingKind(st sqlparse.Statement) (string, bool) {
	switch st := st.(type) {
	case *sqlparse.CreateTable:
		return "CREATE TABLE", true
	case *sqlparse.Insert:
		return "INSERT", true
	case *sqlparse.LoadTable:
		return "LOAD INTO", true
	case *sqlparse.Drop:
		return "DROP", true
	case *sqlparse.Train:
		return "TRAIN", true
	case *sqlparse.LoadModel:
		return "LOAD MODEL", true
	case *sqlparse.Checkpoint:
		return "CHECKPOINT", true
	case *sqlparse.Explain:
		if st.Analyze {
			// EXPLAIN ANALYZE trains and installs the model it measures.
			return "EXPLAIN ANALYZE", true
		}
	}
	return "", false
}

// WAL exposes the session's log to the replication primary (nil for
// in-memory sessions).
func (s *Session) WAL() *storage.WAL { return s.wal }

// LastLSN returns the highest LSN the session's log has assigned or
// applied (0 for a fresh log or an in-memory session).
func (s *Session) LastLSN() uint64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.NextLSN() - 1
}

// WALSize returns the bytes currently in the live log — the auto-checkpoint
// trigger. 0 for in-memory sessions.
func (s *Session) WALSize() int64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.Size()
}

// FlushWAL syncs the log — the replica calls it at batch boundaries before
// acknowledging an applied LSN, so an ack never claims durability the disk
// doesn't have.
func (s *Session) FlushWAL() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Sync()
}

// ReplicationSnapshot serializes the catalog in checkpoint file format
// (synthetic LSNs terminated by a WALCheckpoint frontier record) for a
// replica whose applied LSN is too far behind the live log. The caller
// must hold whatever lock keeps the catalog stable.
func (s *Session) ReplicationSnapshot() ([]byte, uint64, error) {
	buf, frontier, _, err := s.snapshotRecords()
	return buf, frontier, err
}

// ApplyReplicated logs one shipped record into the replica's own WAL
// (preserving the primary's LSN) and applies it to the catalog. A record
// at or below the already-applied LSN returns storage.ErrStaleLSN and
// changes nothing — the double-apply guard for resent records after a
// reconnect. An apply failure after logging means the replica's catalog
// has diverged from the primary's history; the caller must rebuild from a
// snapshot.
func (s *Session) ApplyReplicated(rec storage.WALRecord) error {
	if s.wal == nil {
		return fmt.Errorf("db: replication requires a WAL-backed session")
	}
	if err := s.wal.AppendRecord(rec); err != nil {
		return err
	}
	if err := s.applyWALRecord(rec); err != nil {
		return fmt.Errorf("db: apply replicated record (lsn %d): %w", rec.LSN, err)
	}
	return nil
}

// InstallReplicaSnapshot replaces the whole catalog and WAL directory with
// a primary's snapshot: the catalog is rebuilt from the snapshot records,
// the live log is truncated, and the snapshot bytes become checkpoint.db —
// exactly the state CHECKPOINT would have produced on the primary. On any
// error the previous catalog is restored untouched.
func (s *Session) InstallReplicaSnapshot(snap []byte, frontier uint64) error {
	if s.wal == nil {
		return fmt.Errorf("db: replication requires a WAL-backed session")
	}
	recs, valid := storage.DecodeWALRecords(snap)
	if valid != len(snap) || len(recs) == 0 || recs[len(recs)-1].Type != storage.WALCheckpoint {
		return fmt.Errorf("db: replica snapshot is corrupt")
	}
	var cp walCheckpointPayload
	if err := json.Unmarshal(recs[len(recs)-1].Payload, &cp); err != nil {
		return fmt.Errorf("db: replica snapshot frontier: %w", err)
	}
	if cp.Frontier != frontier {
		return fmt.Errorf("db: replica snapshot frontier %d, handshake said %d", cp.Frontier, frontier)
	}

	oldTables, oldModels := s.tables, s.models
	s.tables = make(map[string]*TableEntry)
	s.models = make(map[string]*ModelEntry)
	for _, rec := range recs[:len(recs)-1] {
		if err := s.applyWALRecord(rec); err != nil {
			s.tables, s.models = oldTables, oldModels
			return fmt.Errorf("db: replica snapshot replay: %w", err)
		}
	}

	// Truncate the log before committing the checkpoint: a crash between
	// the two leaves old-checkpoint + empty-log, a consistent (if stale)
	// state the replica re-syncs past on restart. The reverse order could
	// replay stale post-frontier records on top of the new image.
	if err := s.wal.Reset(); err != nil {
		s.tables, s.models = oldTables, oldModels
		return err
	}
	tmp := filepath.Join(s.walDir, "checkpoint.tmp")
	if err := writeFileSync(tmp, snap); err != nil {
		s.tables, s.models = oldTables, oldModels
		return fmt.Errorf("db: replica snapshot write: %w", err)
	}
	if err := os.Rename(tmp, CheckpointPath(s.walDir)); err != nil {
		s.tables, s.models = oldTables, oldModels
		return fmt.Errorf("db: replica snapshot rename: %w", err)
	}
	s.wal.AdvanceLSN(frontier + 1)
	return nil
}

// writeFileSync writes data to path and fsyncs before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
