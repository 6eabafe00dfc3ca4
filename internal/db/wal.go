package db

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"corgipile/internal/data"
	"corgipile/internal/executor"
	"corgipile/internal/ml"
	"corgipile/internal/obs"
	"corgipile/internal/sqlparse"
	"corgipile/internal/storage"
)

// Durability. A session may attach a write-ahead log directory via OpenWAL;
// from then on every catalog mutation — CREATE TABLE, INSERT, LOAD INTO,
// DROP, model installs — is logged before it is acknowledged, and a restart
// replays checkpoint + log back into an identical catalog. The WAL is off
// by default: experiment sessions stay purely in-memory and their traces
// stay byte-identical.
//
// Layout under the WAL directory:
//
//	wal.log        CRC-framed records since the last checkpoint
//	checkpoint.db  compacted catalog image in the same record format,
//	               terminated by a WALCheckpoint record carrying the live
//	               LSN frontier it covers
//
// CHECKPOINT writes checkpoint.tmp, fsyncs, atomically renames it over
// checkpoint.db, then truncates wal.log. A crash at any point is safe:
// before the rename recovery uses the old checkpoint + full log; between
// rename and truncate the frontier makes replay skip log records the new
// checkpoint already contains.

// walTablePayload is the JSON payload of a WALCreateTable record.
type walTablePayload struct {
	Name           string  `json:"name"`
	Task           int     `json:"task"`
	Features       int     `json:"features"`
	Classes        int     `json:"classes"`
	Device         string  `json:"device"`
	BlockSize      int64   `json:"block_size"`
	PageSize       int64   `json:"page_size,omitempty"`
	Compress       bool    `json:"compress,omitempty"`
	DecompressRate float64 `json:"decompress_rate,omitempty"`
}

// walModelPayload is the JSON payload of a WALPutModel record.
type walModelPayload struct {
	Name     string    `json:"name"`
	Kind     string    `json:"kind"`
	Features int       `json:"features"`
	Classes  int       `json:"classes"`
	Hidden   int       `json:"hidden,omitempty"`
	W        []float64 `json:"weights"`
	// Table and TrainedBlocks carry the incremental-training provenance:
	// which table the model saw and how many of its blocks.
	Table         string `json:"table,omitempty"`
	TrainedBlocks int    `json:"trained_blocks,omitempty"`
}

// walNamePayload is the JSON payload of drop records.
type walNamePayload struct {
	Name string `json:"name"`
}

// walCheckpointPayload terminates a checkpoint file.
type walCheckpointPayload struct {
	// Frontier is the highest live-WAL LSN the checkpoint covers; replay
	// skips log records at or below it.
	Frontier uint64 `json:"frontier"`
}

// RecoveryStats summarizes what OpenWAL replayed.
type RecoveryStats struct {
	// CheckpointRecords and LogRecords count the records applied from each
	// source.
	CheckpointRecords int
	LogRecords        int
	// Tables and Models count the recovered catalog entries.
	Tables int
	Models int
}

// String renders a one-line summary for startup logs.
func (r RecoveryStats) String() string {
	return fmt.Sprintf("recovered %d tables, %d models (%d checkpoint + %d log records)",
		r.Tables, r.Models, r.CheckpointRecords, r.LogRecords)
}

// WALPath returns the live log path under dir.
func WALPath(dir string) string { return filepath.Join(dir, "wal.log") }

// CheckpointPath returns the checkpoint path under dir.
func CheckpointPath(dir string) string { return filepath.Join(dir, "checkpoint.db") }

// WALOptions tunes OpenWALOptions; the zero value matches OpenWAL.
type WALOptions struct {
	// WrapSyncer, when non-nil, wraps the log's write path — the fault
	// injection seam (see storage.WriteFaults). Recovery always reads the
	// real file.
	WrapSyncer func(storage.WriteSyncer) storage.WriteSyncer
}

// OpenWAL attaches a write-ahead log directory to the session, replaying
// any existing checkpoint and log into the catalog first. After it returns,
// every catalog mutation is logged and synced before the statement is
// acknowledged. It must be called before the session serves statements.
func (s *Session) OpenWAL(dir string) (RecoveryStats, error) {
	return s.OpenWALOptions(dir, WALOptions{})
}

// OpenWALOptions is OpenWAL with knobs.
func (s *Session) OpenWALOptions(dir string, opt WALOptions) (RecoveryStats, error) {
	if s.wal != nil {
		return RecoveryStats{}, fmt.Errorf("db: WAL already attached")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return RecoveryStats{}, fmt.Errorf("db: %w", err)
	}
	start := time.Now()
	var stats RecoveryStats

	// A torn checkpoint.tmp is a checkpoint that never committed: discard.
	os.Remove(filepath.Join(dir, "checkpoint.tmp"))

	var frontier uint64
	if buf, err := os.ReadFile(CheckpointPath(dir)); err == nil {
		recs, valid := storage.DecodeWALRecords(buf)
		// The checkpoint was fsynced before its atomic rename, so it must
		// decode completely and end with its frontier record.
		if valid != len(buf) || len(recs) == 0 || recs[len(recs)-1].Type != storage.WALCheckpoint {
			return stats, fmt.Errorf("db: checkpoint %s is corrupt", CheckpointPath(dir))
		}
		for _, rec := range recs[:len(recs)-1] {
			if err := s.applyWALRecord(rec); err != nil {
				return stats, fmt.Errorf("db: checkpoint replay: %w", err)
			}
			stats.CheckpointRecords++
		}
		var cp walCheckpointPayload
		if err := json.Unmarshal(recs[len(recs)-1].Payload, &cp); err != nil {
			return stats, fmt.Errorf("db: checkpoint frontier: %w", err)
		}
		frontier = cp.Frontier
	} else if !os.IsNotExist(err) {
		return stats, fmt.Errorf("db: %w", err)
	}

	w, recs, err := storage.OpenWALFile(WALPath(dir), opt.WrapSyncer)
	if err != nil {
		return stats, err
	}
	w.WithObs(s.obs)
	w.WithEvents(s.events)
	for _, rec := range recs {
		if rec.LSN <= frontier {
			continue // already inside the checkpoint
		}
		if err := s.applyWALRecord(rec); err != nil {
			w.Close()
			return stats, fmt.Errorf("db: wal replay (lsn %d): %w", rec.LSN, err)
		}
		stats.LogRecords++
	}
	w.AdvanceLSN(frontier + 1)
	s.wal = w
	s.walDir = dir
	stats.Tables = len(s.tables)
	stats.Models = len(s.models)
	s.walOpened = time.Now()
	s.obs.Add(obs.WALReplayRecords, int64(stats.CheckpointRecords+stats.LogRecords))
	s.obs.Observe(obs.SpanRecovery, time.Since(start))
	s.events.Emit(obs.EvRecovery, "", fmt.Sprintf(
		"checkpoint_records=%d log_records=%d tables=%d models=%d",
		stats.CheckpointRecords, stats.LogRecords, stats.Tables, stats.Models))
	return stats, nil
}

// Durable reports whether the session has a WAL attached.
func (s *Session) Durable() bool { return s.wal != nil }

// Close releases the session's WAL (a no-op for in-memory sessions).
func (s *Session) Close() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

// applyWALRecord replays one record into the catalog. Payloads are fully
// validated — a corrupt or hostile record yields an error, never a panic or
// a half-applied mutation.
func (s *Session) applyWALRecord(rec storage.WALRecord) error {
	switch rec.Type {
	case storage.WALCreateTable:
		var p walTablePayload
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return fmt.Errorf("create table payload: %w", err)
		}
		name := strings.ToLower(p.Name)
		if name == "" {
			return fmt.Errorf("create table payload: empty name")
		}
		if _, exists := s.tables[name]; exists {
			return fmt.Errorf("table %q created twice", name)
		}
		dev, ok := s.devices[strings.ToLower(p.Device)]
		if !ok {
			return fmt.Errorf("table %q on unknown device %q", name, p.Device)
		}
		tab := storage.NewEmpty(dev, name, data.Task(p.Task), p.Features, p.Classes, storage.Options{
			BlockSize: p.BlockSize, PageSize: p.PageSize,
			Compress: p.Compress, DecompressRate: p.DecompressRate,
		})
		s.tables[name] = &TableEntry{Name: name, Table: tab, Device: strings.ToLower(p.Device), tallies: make(map[string]tally)}
	case storage.WALAppendBlock:
		table, rb, err := storage.DecodeBlockPayload(rec.Payload)
		if err != nil {
			return err
		}
		entry, ok := s.tables[strings.ToLower(table)]
		if !ok {
			return fmt.Errorf("append to unknown table %q", table)
		}
		if err := entry.Table.AppendRawBlock(rb); err != nil {
			return err
		}
	case storage.WALDropTable:
		var p walNamePayload
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return fmt.Errorf("drop table payload: %w", err)
		}
		delete(s.tables, strings.ToLower(p.Name))
	case storage.WALPutModel:
		var p walModelPayload
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return fmt.Errorf("model payload: %w", err)
		}
		model, err := ml.New(p.Kind, maxInt(p.Classes, 2))
		if err != nil {
			return fmt.Errorf("model %q: %w", p.Name, err)
		}
		if mlp, ok := model.(ml.MLP); ok && p.Hidden > 0 {
			mlp.Hidden = p.Hidden
			model = mlp
		}
		if want := model.Dim(p.Features); want != len(p.W) {
			return fmt.Errorf("model %q has %d weights, want %d", p.Name, len(p.W), want)
		}
		name := strings.ToLower(p.Name)
		s.models[name] = &ModelEntry{
			Name: name, Kind: p.Kind, Model: model, W: p.W,
			Features: p.Features, Classes: p.Classes,
			Table: strings.ToLower(p.Table), TrainedBlocks: p.TrainedBlocks,
			Epochs: []executor.EpochRow{},
		}
	case storage.WALDropModel:
		var p walNamePayload
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return fmt.Errorf("drop model payload: %w", err)
		}
		delete(s.models, strings.ToLower(p.Name))
	case storage.WALCheckpoint:
		// Frontier records are handled by OpenWAL; inside the live log they
		// carry no mutation.
	default:
		return fmt.Errorf("unknown record type %d", rec.Type)
	}
	return nil
}

// logRecord appends one record and returns it unsynced; no-op without WAL.
func (s *Session) logRecord(typ storage.WALRecordType, payload any) error {
	if s.wal == nil {
		return nil
	}
	buf, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("db: wal payload: %w", err)
	}
	_, err = s.wal.Append(typ, buf)
	return err
}

// logSync flushes the log; statements call it once, after their last record.
func (s *Session) logSync() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Sync()
}

// logCreateTable logs a CREATE TABLE and every block of its initial
// contents (synthetic tables are deterministic but FROM-file loads are not
// reproducible from the statement alone, so block contents are always
// logged).
func (s *Session) logCreateTable(entry *TableEntry) error {
	if s.wal == nil {
		return nil
	}
	tab := entry.Table
	opts := tab.Options()
	if err := s.logRecord(storage.WALCreateTable, walTablePayload{
		Name: entry.Name, Task: int(tab.Task()), Features: tab.Features(), Classes: tab.Classes(),
		Device: entry.Device, BlockSize: opts.BlockSize, PageSize: opts.PageSize,
		Compress: opts.Compress, DecompressRate: opts.DecompressRate,
	}); err != nil {
		return err
	}
	for i := 0; i < tab.NumBlocks(); i++ {
		rb, err := tab.RawBlockAt(i)
		if err != nil {
			return err
		}
		if _, err := s.wal.Append(storage.WALAppendBlock, storage.EncodeBlockPayload(entry.Name, rb)); err != nil {
			return err
		}
	}
	return s.logSync()
}

// logAppendedBlocks logs blocks returned by Table.AppendTuples and syncs.
func (s *Session) logAppendedBlocks(table string, raws []storage.RawBlock) error {
	if s.wal == nil {
		return nil
	}
	for _, rb := range raws {
		if _, err := s.wal.Append(storage.WALAppendBlock, storage.EncodeBlockPayload(table, rb)); err != nil {
			return err
		}
	}
	return s.logSync()
}

// logModel logs a model install (or overwrite) and syncs.
func (s *Session) logModel(m *ModelEntry) error {
	if s.wal == nil {
		return nil
	}
	hidden := 0
	if mlp, ok := m.Model.(ml.MLP); ok {
		hidden = mlp.Hidden
	}
	if err := s.logRecord(storage.WALPutModel, walModelPayload{
		Name: m.Name, Kind: m.Kind, Features: m.Features, Classes: m.Classes,
		Hidden: hidden, W: m.W, Table: m.Table, TrainedBlocks: m.TrainedBlocks,
	}); err != nil {
		return err
	}
	return s.logSync()
}

// logDrop logs a DROP TABLE/MODEL and syncs.
func (s *Session) logDrop(typ storage.WALRecordType, name string) error {
	if err := s.logRecord(typ, walNamePayload{Name: name}); err != nil {
		return err
	}
	return s.logSync()
}

// snapshotRecords serializes the whole catalog into checkpoint file format:
// synthetic LSNs 1..n terminated by a WALCheckpoint record carrying the live
// frontier (the highest live-WAL LSN the image covers). Checkpoint writes
// the bytes to disk; the replication primary streams them to a catching-up
// replica. The caller must hold whatever lock keeps the catalog stable.
func (s *Session) snapshotRecords() (buf []byte, frontier uint64, n int, err error) {
	if s.wal == nil {
		return nil, 0, 0, fmt.Errorf("db: snapshot requires a WAL-backed session")
	}
	frontier = s.wal.NextLSN() - 1
	var lsn uint64
	emit := func(typ storage.WALRecordType, payload []byte) {
		lsn++
		buf = storage.AppendWALRecord(buf, storage.WALRecord{LSN: lsn, Type: typ, Payload: payload})
	}
	emitJSON := func(typ storage.WALRecordType, payload any) error {
		b, err := json.Marshal(payload)
		if err != nil {
			return fmt.Errorf("db: checkpoint payload: %w", err)
		}
		emit(typ, b)
		return nil
	}
	for _, name := range sortedKeys(s.tables) {
		entry := s.tables[name]
		tab := entry.Table
		opts := tab.Options()
		if err := emitJSON(storage.WALCreateTable, walTablePayload{
			Name: name, Task: int(tab.Task()), Features: tab.Features(), Classes: tab.Classes(),
			Device: entry.Device, BlockSize: opts.BlockSize, PageSize: opts.PageSize,
			Compress: opts.Compress, DecompressRate: opts.DecompressRate,
		}); err != nil {
			return nil, 0, 0, err
		}
		for i := 0; i < tab.NumBlocks(); i++ {
			rb, err := tab.RawBlockAt(i)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("db: snapshot table %q: %w", name, err)
			}
			emit(storage.WALAppendBlock, storage.EncodeBlockPayload(name, rb))
		}
	}
	for _, name := range sortedKeys(s.models) {
		m := s.models[name]
		hidden := 0
		if mlp, ok := m.Model.(ml.MLP); ok {
			hidden = mlp.Hidden
		}
		if err := emitJSON(storage.WALPutModel, walModelPayload{
			Name: name, Kind: m.Kind, Features: m.Features, Classes: m.Classes,
			Hidden: hidden, W: m.W, Table: m.Table, TrainedBlocks: m.TrainedBlocks,
		}); err != nil {
			return nil, 0, 0, err
		}
	}
	if err := emitJSON(storage.WALCheckpoint, walCheckpointPayload{Frontier: frontier}); err != nil {
		return nil, 0, 0, err
	}
	return buf, frontier, int(lsn), nil
}

// Checkpoint compacts the current catalog into checkpoint.db and truncates
// the live log, returning the number of records written. See the protocol
// comment at the top of this file for the crash-safety argument.
func (s *Session) Checkpoint() (int, error) {
	if s.wal == nil {
		return 0, fmt.Errorf("db: CHECKPOINT requires a WAL-backed session")
	}
	buf, _, n, err := s.snapshotRecords()
	if err != nil {
		return 0, err
	}
	tmp := filepath.Join(s.walDir, "checkpoint.tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("db: checkpoint: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return 0, fmt.Errorf("db: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, fmt.Errorf("db: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("db: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, CheckpointPath(s.walDir)); err != nil {
		return 0, fmt.Errorf("db: checkpoint rename: %w", err)
	}
	// The checkpoint is committed; everything in the live log is covered by
	// the frontier, so the log can restart empty.
	if err := s.wal.Reset(); err != nil {
		return 0, err
	}
	s.events.Emit(obs.EvCheckpoint, "", fmt.Sprintf("records=%d", n))
	return n, nil
}

func (s *Session) execCheckpoint() (*Result, error) {
	n, err := s.Checkpoint()
	if err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("CHECKPOINT: %d records, wal truncated", n)}, nil
}

// execInsert appends the statement's rows to a live table as new blocks.
func (s *Session) execInsert(st *sqlparse.Insert) (*Result, error) {
	entry, ok := s.Table(st.Table)
	if !ok {
		return nil, fmt.Errorf("db: unknown table %q", st.Table)
	}
	tab := entry.Table
	feats := tab.Features()
	base := int64(tab.NumTuples())
	tuples := make([]data.Tuple, len(st.Rows))
	for i, row := range st.Rows {
		if len(row.Features) != feats {
			return nil, fmt.Errorf("db: INSERT row %d has %d features, table %q has %d",
				i+1, len(row.Features), entry.Name, feats)
		}
		// AppendTuples encodes the tuples and keeps none of them, so the
		// statement's own feature slices serve.
		tuples[i] = data.Tuple{ID: base + int64(i), Label: row.Label, Dense: row.Features}
	}
	preBlocks := tab.NumBlocks()
	raws, err := tab.AppendTuples(tuples)
	if err != nil {
		return nil, err
	}
	if err := s.logAppendedBlocks(entry.Name, raws); err != nil {
		// The log rejected the statement, so the acknowledged state must not
		// include it: drop the in-memory blocks the append just created.
		tab.TruncateBlocks(preBlocks)
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("INSERT: %d tuples in %d blocks into %q (now %d tuples, %d blocks)",
		len(tuples), len(raws), entry.Name, tab.NumTuples(), tab.NumBlocks())}, nil
}

// loadChunkTuples is LOAD INTO's append granularity: once the whole file is
// parsed, each chunk of this many tuples is appended and WAL-synced on its
// own, so a crash mid-load leaves a consistent prefix of the file ingested.
const loadChunkTuples = 4096

// execLoadTable loads a LIBSVM file into an existing table. It reads and
// checks the whole file first, so a malformed or out-of-range row ingests
// nothing, then appends and syncs it loadChunkTuples tuples at a time.
func (s *Session) execLoadTable(st *sqlparse.LoadTable) (*Result, error) {
	entry, ok := s.Table(st.Table)
	if !ok {
		return nil, fmt.Errorf("db: unknown table %q", st.Table)
	}
	tab := entry.Table
	f, err := os.Open(st.Path)
	if err != nil {
		return nil, fmt.Errorf("db: %w", err)
	}
	defer f.Close()
	ds, err := data.ReadLIBSVM(f, entry.Name, tab.Features())
	if err != nil {
		return nil, err
	}
	for i := range ds.Tuples {
		for _, idx := range ds.Tuples[i].SparseIdx {
			if int(idx) >= tab.Features() {
				return nil, fmt.Errorf("db: %s row %d has feature index %d, table %q has %d features",
					st.Path, i+1, idx+1, entry.Name, tab.Features())
			}
		}
	}
	base := int64(tab.NumTuples())
	for i := range ds.Tuples {
		ds.Tuples[i].ID = base + int64(i)
	}
	blocks := 0
	for off := 0; off < len(ds.Tuples); off += loadChunkTuples {
		end := off + loadChunkTuples
		if end > len(ds.Tuples) {
			end = len(ds.Tuples)
		}
		preBlocks := tab.NumBlocks()
		raws, err := tab.AppendTuples(ds.Tuples[off:end])
		if err != nil {
			return nil, err
		}
		if err := s.logAppendedBlocks(entry.Name, raws); err != nil {
			// Earlier chunks were logged and synced — they stay. Only the
			// chunk whose records never became durable is rolled back.
			tab.TruncateBlocks(preBlocks)
			return nil, err
		}
		blocks += len(raws)
	}
	return &Result{Message: fmt.Sprintf("LOAD: %d tuples in %d blocks into %q (now %d tuples, %d blocks)",
		len(ds.Tuples), blocks, entry.Name, tab.NumTuples(), tab.NumBlocks())}, nil
}
