package db

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"corgipile/internal/data"
	"corgipile/internal/obs"
	"corgipile/internal/sqlparse"
)

// This file implements the introspection read path: general SELECT
// statements evaluated against virtual system tables backed by live
// state. The db layer registers the session-scoped tables
// (corgi_tables, corgi_models, corgi_wal, corgi_metrics, corgi_events,
// corgi_spans); the serving plane registers its own on top
// (corgi_jobs, corgi_sessions, corgi_replication). SELECT also works
// against base tables (id, label, f0..fN), which is mostly useful for
// eyeballing small tables.

// VirtualTable is a system table backed by live state: a fixed column
// list and a Rows callback evaluated at SELECT time. Rows must return
// one []string per row, each len(Columns) long, and must be safe under
// whatever locking discipline the registrar's SELECT path runs
// (sessions are single-statement; the serving plane executes SELECT
// under its catalog read lock).
type VirtualTable struct {
	Name    string
	Columns []string
	Rows    func() [][]string
}

// RegisterVirtual registers (or replaces) a virtual table. Names are
// case-insensitive and shadow base tables in SELECT resolution, so the
// corgi_ prefix is conventional, not enforced.
func (s *Session) RegisterVirtual(vt VirtualTable) {
	s.virtual[strings.ToLower(vt.Name)] = &vt
}

// registerSystemTables installs the session-scoped system tables. All
// closures read live state at query time; tables whose substrate is
// absent (no WAL, no metrics registry, no event log) render zero rows
// rather than erroring, so `SELECT * FROM corgi_wal` is always valid.
func (s *Session) registerSystemTables() {
	s.RegisterVirtual(VirtualTable{
		Name:    "corgi_tables",
		Columns: []string{"name", "tuples", "blocks", "bytes", "device"},
		Rows: func() [][]string {
			rows := make([][]string, 0, len(s.tables))
			for _, name := range sortedKeys(s.tables) {
				t := s.tables[name]
				rows = append(rows, []string{
					name,
					strconv.Itoa(t.Table.NumTuples()),
					strconv.Itoa(t.Table.NumBlocks()),
					strconv.FormatInt(t.Table.SizeBytes(), 10),
					t.Device,
				})
			}
			return rows
		},
	})
	s.RegisterVirtual(VirtualTable{
		Name:    "corgi_models",
		Columns: []string{"name", "kind", "table_name", "features", "classes", "epochs", "final_loss", "final_accuracy", "trained_blocks"},
		Rows: func() [][]string {
			rows := make([][]string, 0, len(s.models))
			for _, name := range sortedKeys(s.models) {
				m := s.models[name]
				loss, acc := "", ""
				if n := len(m.Epochs); n > 0 {
					loss = fmt.Sprintf("%.6f", m.Epochs[n-1].AvgLoss)
					acc = fmt.Sprintf("%.4f", m.Epochs[n-1].TrainAcc)
				}
				rows = append(rows, []string{
					name, m.Kind, m.Table,
					strconv.Itoa(m.Features), strconv.Itoa(m.Classes),
					strconv.Itoa(len(m.Epochs)), loss, acc,
					strconv.Itoa(m.TrainedBlocks),
				})
			}
			return rows
		},
	})
	s.RegisterVirtual(VirtualTable{
		Name:    "corgi_wal",
		Columns: []string{"durable", "path", "size_bytes", "last_lsn", "checkpoint_age_seconds", "poisoned"},
		Rows: func() [][]string {
			if s.wal == nil {
				return [][]string{{"false", "", "0", "0", "", ""}}
			}
			age := ""
			if d, ok := s.CheckpointAge(); ok {
				age = fmt.Sprintf("%.3f", d.Seconds())
			}
			poisoned := ""
			if err := s.wal.Poisoned(); err != nil {
				poisoned = err.Error()
			}
			return [][]string{{
				"true",
				WALPath(s.walDir),
				strconv.FormatInt(s.wal.Size(), 10),
				strconv.FormatUint(s.LastLSN(), 10),
				age,
				poisoned,
			}}
		},
	})
	s.RegisterVirtual(VirtualTable{
		Name:    "corgi_metrics",
		Columns: []string{"name", "kind", "value"},
		Rows:    func() [][]string { return metricRows(s.obs) },
	})
	s.RegisterVirtual(VirtualTable{
		Name:    "corgi_events",
		Columns: []string{"seq", "time_ms", "type", "trace_id", "detail", "dur_ms", "err"},
		Rows: func() [][]string {
			evs := s.events.Events()
			rows := make([][]string, 0, len(evs))
			for _, ev := range evs {
				dur := ""
				if ev.DurMs != 0 {
					dur = fmt.Sprintf("%.3f", ev.DurMs)
				}
				rows = append(rows, []string{
					strconv.FormatInt(ev.Seq, 10),
					strconv.FormatInt(ev.TimeMs, 10),
					ev.Type, ev.Trace, ev.Detail, dur, ev.Err,
				})
			}
			return rows
		},
	})
	s.RegisterVirtual(VirtualTable{
		Name:    "corgi_spans",
		Columns: []string{"seq", "trace_id", "name", "start_ms", "dur_ms"},
		Rows: func() [][]string {
			sps := s.events.Spans()
			rows := make([][]string, 0, len(sps))
			for _, sp := range sps {
				rows = append(rows, []string{
					strconv.FormatInt(sp.Seq, 10),
					sp.Trace, sp.Name,
					strconv.FormatInt(sp.StartMs, 10),
					fmt.Sprintf("%.3f", sp.DurMs),
				})
			}
			return rows
		},
	})
}

// metricRows renders the registry's flattened snapshot, one row per
// series, in sorted name order.
func metricRows(reg *obs.Registry) [][]string {
	flat := reg.Snapshot().Flatten()
	rows := make([][]string, len(flat))
	for i, m := range flat {
		rows[i] = []string{m.Name, m.Kind, m.Text()}
	}
	return rows
}

func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', 9, 64)
}

// CheckpointAge reports how stale the durable checkpoint is: the age of
// checkpoint.db, or the time since OpenWAL when no checkpoint exists
// yet. ok is false for in-memory sessions.
func (s *Session) CheckpointAge() (age time.Duration, ok bool) {
	if s.wal == nil {
		return 0, false
	}
	if fi, err := os.Stat(CheckpointPath(s.walDir)); err == nil {
		return time.Since(fi.ModTime()), true
	}
	if s.walOpened.IsZero() {
		return 0, true
	}
	return time.Since(s.walOpened), true
}

// execSelect evaluates a general SELECT: resolve the table (virtual
// tables shadow base tables), filter, order, project, limit.
func (s *Session) execSelect(st *sqlparse.Select) (*Result, error) {
	name := strings.ToLower(st.Table)
	var cols []string
	var rows [][]string
	if vt, ok := s.virtual[name]; ok {
		cols, rows = vt.Columns, vt.Rows()
	} else if entry, ok := s.tables[name]; ok {
		var err error
		cols, rows, err = baseTableRows(entry)
		if err != nil {
			return nil, err
		}
	} else {
		return nil, fmt.Errorf("db: unknown table %q", st.Table)
	}
	return evalSelect(st, cols, rows)
}

// baseTableRows materializes a stored table for SELECT: columns id,
// label, f0..fN. Fine for the small tables worth eyeballing; use LIMIT
// on anything big.
func baseTableRows(entry *TableEntry) ([]string, [][]string, error) {
	tuples, err := entry.Table.DecodeAll()
	if err != nil {
		return nil, nil, err
	}
	feats := entry.Table.Features()
	cols := make([]string, 0, feats+2)
	cols = append(cols, "id", "label")
	for i := 0; i < feats; i++ {
		cols = append(cols, "f"+strconv.Itoa(i))
	}
	rows := make([][]string, 0, len(tuples))
	for i := range tuples {
		tp := &tuples[i]
		row := make([]string, 0, feats+2)
		row = append(row, strconv.FormatInt(tp.ID, 10), trimFloat(tp.Label))
		for f := 0; f < feats; f++ {
			row = append(row, trimFloat(tupleFeature(tp, f)))
		}
		rows = append(rows, row)
	}
	return cols, rows, nil
}

// evalSelect applies WHERE, ORDER BY, projection and LIMIT over a
// materialized (columns, rows) relation.
func evalSelect(st *sqlparse.Select, cols []string, rows [][]string) (*Result, error) {
	colIdx := func(name string) (int, error) {
		for i, c := range cols {
			if c == name {
				return i, nil
			}
		}
		return 0, fmt.Errorf("db: table %q has no column %q (columns: %s)",
			st.Table, name, strings.Join(cols, ", "))
	}
	for _, cond := range st.Where {
		idx, err := colIdx(cond.Column)
		if err != nil {
			return nil, err
		}
		kept := rows[:0]
		for _, row := range rows {
			ok, err := cellMatches(row[idx], cond.Op, cond.Value.Raw)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, row)
			}
		}
		rows = kept
	}
	if st.OrderBy != "" {
		idx, err := colIdx(st.OrderBy)
		if err != nil {
			return nil, err
		}
		sort.SliceStable(rows, func(i, j int) bool {
			c := compareCells(rows[i][idx], rows[j][idx])
			if st.Desc {
				return c > 0
			}
			return c < 0
		})
	}
	if st.Limit > 0 && len(rows) > st.Limit {
		rows = rows[:st.Limit]
	}
	outCols := cols
	if len(st.Columns) > 0 {
		idxs := make([]int, len(st.Columns))
		for i, c := range st.Columns {
			idx, err := colIdx(c)
			if err != nil {
				return nil, err
			}
			idxs[i] = idx
		}
		projected := make([][]string, len(rows))
		for r, row := range rows {
			out := make([]string, len(idxs))
			for i, idx := range idxs {
				out[i] = row[idx]
			}
			projected[r] = out
		}
		rows, outCols = projected, st.Columns
	}
	// Copy the row slice so the result never aliases a provider's backing
	// array (the in-place WHERE filter above truncates it).
	out := make([][]string, len(rows))
	copy(out, rows)
	return &Result{
		Columns: outCols,
		Rows:    out,
		Message: fmt.Sprintf("%d row(s)", len(out)),
	}, nil
}

// tupleFeature reads one dense-indexed feature from either tuple
// representation (sparse indices are strictly increasing).
func tupleFeature(t *data.Tuple, i int) float64 {
	if !t.IsSparse() {
		if i < len(t.Dense) {
			return t.Dense[i]
		}
		return 0
	}
	for k, idx := range t.SparseIdx {
		if int(idx) == i {
			return t.SparseVal[k]
		}
		if int(idx) > i {
			break
		}
	}
	return 0
}

// compareCells orders two cells numerically when both parse as numbers,
// lexicographically otherwise.
func compareCells(a, b string) int {
	fa, ea := strconv.ParseFloat(a, 64)
	fb, eb := strconv.ParseFloat(b, 64)
	if ea == nil && eb == nil {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		}
		return 0
	}
	return strings.Compare(a, b)
}

// cellMatches evaluates cell op value with numeric-aware comparison.
func cellMatches(cell, op, value string) (bool, error) {
	c := compareCells(cell, value)
	switch op {
	case "=":
		return c == 0, nil
	case "!=":
		return c != 0, nil
	case "<":
		return c < 0, nil
	case "<=":
		return c <= 0, nil
	case ">":
		return c > 0, nil
	case ">=":
		return c >= 0, nil
	}
	return false, fmt.Errorf("db: unsupported comparison %q", op)
}
