package serve

import (
	"sync"

	"corgipile/internal/data"
	"corgipile/internal/db"
	"corgipile/internal/ml"
	"corgipile/internal/obs"
	"corgipile/internal/sqlparse"
	"corgipile/internal/storage"
)

// This file is the high-QPS predict path. The batch executor pipeline
// (Scan → Filter → Predict over the simulated device) pays simulated I/O per
// statement; a serving workload re-reads the same table thousands of times.
// The server instead reads the table's decoded image (storage.Table keeps
// one, shared with TRAIN) up to a block frontier and keeps, per model, a
// running count of correct predictions over it, so a PREDICT pays for what
// changed plus what it returns. Two storage guarantees carry it: blocks are
// immutable once appended, and catalog entries (*storage.Table,
// *db.ModelEntry) are replaced, never mutated. Whether cached state still
// applies is decided by comparing pointers and frontiers at lookup — no
// writer notifies the cache.
//
// Lock order: catalog read lock (entries, frontier, snapshot lookup) →
// released → the snapshot's own lock (catch-up; the image's lock inside it) →
// released → rows. INSERT, LOAD INTO, replica apply and their TruncateBlocks
// rollback all hold the catalog write lock, so a frontier read under the read
// lock counts only blocks whose WAL records are durable.

// snapshot is one table's per-model tallies over its decoded image.
type snapshot struct {
	table *storage.Table // valid iff the catalog entry still holds this table

	// mu is held while the snapshot catches up, so concurrent PREDICTs on
	// one table wait for one scoring pass, and released before rows are built.
	mu sync.Mutex
	// blocks is the furthest frontier a PREDICT has brought here: statements
	// answer over blocks [0, blocks), which no tally runs past.
	blocks  int
	tallies map[string]tally // by model name
}

// tally is a model version's count of correct predictions over the first
// upTo tuples; another entry under the same name starts it over.
type tally struct {
	model         *db.ModelEntry
	upTo, correct int
}

// view is what one statement takes from under the snapshot lock.
type view struct {
	tuples  []data.Tuple
	correct int // the tally over all of tuples
	// preds[i] is the prediction for tuples[first+i], made while tallying,
	// so the statement's rows don't score those tuples again.
	first int
	preds []float64
}

// predictCache maps lower-cased table names to snapshots.
type predictCache struct {
	mu     sync.Mutex
	tables map[string]*snapshot
}

// snapshotOf returns the snapshot of entry's table, starting an empty one
// when the name is new or resolved to another table when it was cached.
// Callers hold the catalog read lock, so the name resolves to entry now.
func (c *predictCache) snapshotOf(entry *db.TableEntry) *snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	sn := c.tables[entry.Name]
	if sn == nil || sn.table != entry.Table {
		sn = &snapshot{table: entry.Table, tallies: make(map[string]tally)}
		c.tables[entry.Name] = sn
	}
	return sn
}

// sweep drops the snapshots whose name no longer resolves to their table
// (DROP TABLE, a replacing CREATE TABLE, a replica snapshot install). It
// only frees memory — snapshotOf never serves such a snapshot. Callers hold
// the catalog write lock.
func (c *predictCache) sweep(dbs *db.Session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, sn := range c.tables {
		if entry, ok := dbs.Table(name); !ok || entry.Table != sn.table {
			delete(c.tables, name)
		}
	}
}

// advance moves the snapshot up to the caller's frontier and, when tallied,
// scores with predict the tuples m's tally has not seen, keeping the
// predictions a statement with this limit will print.
func (sn *snapshot) advance(frontier int, m *db.ModelEntry, predict func([]float64, *data.Tuple) float64, tallied bool, limit int, reg *obs.Registry) (view, error) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	frontier = max(frontier, sn.blocks) // a tally may already cover what a later statement brought
	tuples, err := sn.table.DecodeBlocks(0, frontier)
	if err != nil {
		return view{}, err
	}
	if sn.blocks == 0 && frontier > 0 {
		reg.Inc(obs.ServePredictFills)
	} else if sn.blocks < frontier {
		reg.Add(obs.ServePredictCatchupBlocks, int64(frontier-sn.blocks))
	}
	sn.blocks = frontier
	v := view{tuples: tuples, first: len(tuples)}
	if !tallied {
		return v, nil
	}
	tl := sn.tallies[m.Name]
	if tl.model != m {
		tl = tally{model: m}
	}
	if tl.upTo < len(v.tuples) {
		task := sn.table.Task()
		v.first = tl.upTo
		for i := tl.upTo; i < len(v.tuples); i++ {
			t := &v.tuples[i]
			pred := predict(m.W, t)
			if db.PredictCorrect(task, t.Label, pred) {
				tl.correct++
			}
			if limit == 0 || i < limit {
				v.preds = append(v.preds, pred)
			}
		}
		reg.Add(obs.ServePredictTallied, int64(len(v.tuples)-tl.upTo))
		tl.upTo = len(v.tuples)
		sn.tallies[m.Name] = tl
	}
	v.correct = tl.correct
	return v, nil
}

// execPredict answers a PREDICT statement. Without a WHERE the count and
// the accuracy come from the snapshot and its tally, so only the rows it
// returns are scored; with one, the filtered tuples are scanned and scored.
func (s *Server) execPredict(st *sqlparse.Predict) *Response {
	s.catalog.RLock()
	entry, tok := s.dbs.Table(st.Table)
	m, mok := s.dbs.Model(st.Model)
	var sn *snapshot
	var frontier int
	if tok && mok {
		sn, frontier = s.cache.snapshotOf(entry), entry.Table.NumBlocks()
	}
	s.catalog.RUnlock()
	if !tok {
		return errResponse(ErrNotFound, "unknown table %q", st.Table)
	}
	if !mok {
		return errResponse(ErrNotFound, "unknown model %q", st.Model)
	}

	task := entry.Table.Task()
	predict := ml.Predictor(m.Model) // one workspace for the statement
	v, err := sn.advance(frontier, m, predict, st.Where == nil && task != data.TaskRegression, st.Limit, s.reg)
	if err != nil {
		return errResponse(ErrExec, "decode table %q: %v", st.Table, err)
	}
	resp := &Response{OK: true, Type: "result", Columns: []string{"id", "label", "prediction"}}
	if st.Where == nil {
		rows := v.tuples
		if st.Limit > 0 && st.Limit < len(rows) {
			rows = rows[:st.Limit]
		}
		resp.Rows = make([][]string, 0, len(rows))
		for i := range rows {
			var pred float64
			if i >= v.first {
				pred = v.preds[i-v.first]
			} else {
				pred = predict(m.W, &rows[i])
			}
			resp.Rows = append(resp.Rows, db.PredictRow(rows[i].ID, rows[i].Label, pred))
		}
		resp.Message = db.PredictMessage(task, len(v.tuples), v.correct)
		return resp
	}
	filter := db.CompilePredicate(st.Where)
	correct, n := 0, 0
	for i := range v.tuples {
		t := &v.tuples[i]
		if !filter(t) {
			continue
		}
		pred := predict(m.W, t)
		n++
		if db.PredictCorrect(task, t.Label, pred) {
			correct++
		}
		if st.Limit == 0 || len(resp.Rows) < st.Limit {
			resp.Rows = append(resp.Rows, db.PredictRow(t.ID, t.Label, pred))
		}
	}
	resp.Message = db.PredictMessage(task, n, correct)
	return resp
}
