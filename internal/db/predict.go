package db

import (
	"fmt"
	"strconv"

	"corgipile/internal/data"
	"corgipile/internal/ml"
	"corgipile/internal/obs"
	"corgipile/internal/sqlparse"
)

// This file is PREDICT. A statement reads the table's decoded image
// (storage.Table keeps one, shared with TRAIN) up to a block frontier and
// keeps, per model, a running count of correct predictions over it, so a
// PREDICT pays for what changed plus what it returns, and charges no
// simulated I/O. Two storage guarantees carry it: blocks are immutable once
// appended, and catalog entries (*TableEntry, *ModelEntry) are replaced,
// never mutated. The state hangs off the table's entry, so a DROP, a
// replacing CREATE or a replica snapshot install drops it with the entry;
// whether a model's tally still applies is decided by comparing pointers at
// lookup. Nothing is invalidated.
//
// Lock order: the caller's catalog lock (PreparePredict: entries, frontier)
// → released → the entry's predict lock (catch-up; the image's lock inside
// it) → released → rows. INSERT, LOAD INTO, replica apply and their
// TruncateBlocks rollback all run under the catalog write lock, so a
// frontier read under the read lock counts only blocks whose WAL records
// are durable.

// tally is a model version's count of correct predictions over the first
// upTo tuples; another entry under the same name starts it over.
type tally struct {
	model         *ModelEntry
	upTo, correct int
}

// view is what one statement takes from under the entry's predict lock.
type view struct {
	tuples  []data.Tuple
	correct int // the tally over all of tuples
	// preds[i] is the prediction for tuples[first+i], made while tallying,
	// so the statement's rows don't score those tuples again.
	first int
	preds []float64
}

// PreparedPredict is a PREDICT statement bound to its table, its model and
// the table's block frontier. PreparePredict reads the catalog (callers
// serialize it with catalog mutations); Run touches no catalog state, so
// the serving plane scores outside its catalog lock.
type PreparedPredict struct {
	st       *sqlparse.Predict
	entry    *TableEntry
	model    *ModelEntry
	frontier int
}

// PreparePredict resolves a PREDICT statement against the catalog.
func (s *Session) PreparePredict(st *sqlparse.Predict) (*PreparedPredict, error) {
	entry, ok := s.Table(st.Table)
	if !ok {
		return nil, fmt.Errorf("db: unknown table %q", st.Table)
	}
	m, ok := s.Model(st.Model)
	if !ok {
		return nil, fmt.Errorf("db: unknown model %q", st.Model)
	}
	return &PreparedPredict{st: st, entry: entry, model: m, frontier: entry.Table.NumBlocks()}, nil
}

func (s *Session) execPredict(st *sqlparse.Predict) (*Result, error) {
	pp, err := s.PreparePredict(st)
	if err != nil {
		return nil, err
	}
	return pp.Run(s.obs)
}

// advance moves the entry's snapshot up to the caller's frontier and, when
// tallied, scores with predict the tuples m's tally has not seen, keeping
// the predictions a statement with this limit will print.
func (e *TableEntry) advance(frontier int, m *ModelEntry, predict func(*data.Tuple) float64, tallied bool, limit int, reg *obs.Registry) (view, error) {
	e.predictMu.Lock()
	defer e.predictMu.Unlock()
	frontier = max(frontier, e.predictBlocks) // a tally may already cover what a later statement brought
	tuples, err := e.Table.DecodeBlocks(0, frontier)
	if err != nil {
		return view{}, err
	}
	if e.predictBlocks == 0 && frontier > 0 {
		reg.Inc(obs.ServePredictFills)
	} else if e.predictBlocks < frontier {
		reg.Add(obs.ServePredictCatchupBlocks, int64(frontier-e.predictBlocks))
	}
	e.predictBlocks = frontier
	v := view{tuples: tuples, first: len(tuples)}
	if !tallied {
		return v, nil
	}
	tl := e.tallies[m.Name]
	if tl.model != m {
		tl = tally{model: m}
	}
	if tl.upTo < len(v.tuples) {
		task := e.Table.Task()
		v.first = tl.upTo
		for i := tl.upTo; i < len(v.tuples); i++ {
			t := &v.tuples[i]
			pred := predict(t)
			if predictCorrect(task, t.Label, pred) {
				tl.correct++
			}
			if limit == 0 || i < limit {
				v.preds = append(v.preds, pred)
			}
		}
		reg.Add(obs.ServePredictTallied, int64(len(v.tuples)-tl.upTo))
		tl.upTo = len(v.tuples)
		e.tallies[m.Name] = tl
	}
	v.correct = tl.correct
	return v, nil
}

// Run answers the statement, counting its snapshot work into reg (nil-safe).
// Without a WHERE the count and the accuracy come from the snapshot and its
// tally, so only the rows it returns are scored; with one, the filtered
// tuples are scanned and scored.
func (pp *PreparedPredict) Run(reg *obs.Registry) (*Result, error) {
	st, m := pp.st, pp.model
	task := pp.entry.Table.Task()
	predict := ml.Predictor(m.Model, m.W) // one workspace and set-up for the statement
	v, err := pp.entry.advance(pp.frontier, m, predict, st.Where == nil && task != data.TaskRegression, st.Limit, reg)
	if err != nil {
		return nil, fmt.Errorf("db: decode table %q: %w", st.Table, err)
	}
	res := &Result{Columns: []string{"id", "label", "prediction"}}
	if st.Where == nil {
		rows := v.tuples
		if st.Limit > 0 && st.Limit < len(rows) {
			rows = rows[:st.Limit]
		}
		res.Rows = make([][]string, 0, len(rows))
		for i := range rows {
			var pred float64
			if i >= v.first {
				pred = v.preds[i-v.first]
			} else {
				pred = predict(&rows[i])
			}
			res.Rows = append(res.Rows, predictRow(rows[i].ID, rows[i].Label, pred))
		}
		res.Message = predictMessage(task, len(v.tuples), v.correct)
		return res, nil
	}
	filter := compilePredicate(st.Where)
	correct, n := 0, 0
	for i := range v.tuples {
		t := &v.tuples[i]
		if !filter(t) {
			continue
		}
		pred := predict(t)
		n++
		if predictCorrect(task, t.Label, pred) {
			correct++
		}
		if st.Limit == 0 || len(res.Rows) < st.Limit {
			res.Rows = append(res.Rows, predictRow(t.ID, t.Label, pred))
		}
	}
	res.Message = predictMessage(task, n, correct)
	return res, nil
}

// predictCorrect reports whether pred counts towards the accuracy a PREDICT
// reports: same sign as the label, and for multiclass the same class.
// Regression has no accuracy.
func predictCorrect(task data.Task, label, pred float64) bool {
	return task != data.TaskRegression && (pred >= 0) == (label >= 0) &&
		(task != data.TaskMulticlass || pred == label)
}

// predictRow formats one output row; floats print as fmt's %g does. The
// three cells share one string.
func predictRow(id int64, label, pred float64) []string {
	var b [72]byte // 20 digits of id, 24 bytes per shortest float64
	buf := strconv.AppendInt(b[:0], id, 10)
	i := len(buf)
	buf = strconv.AppendFloat(buf, label, 'g', -1, 64)
	j := len(buf)
	s := string(strconv.AppendFloat(buf, pred, 'g', -1, 64))
	return []string{s[:i], s[i:j], s[j:]}
}

// predictMessage renders the statement's summary line over n scored tuples.
func predictMessage(task data.Task, n, correct int) string {
	if task != data.TaskRegression && n > 0 {
		return fmt.Sprintf("PREDICT: %d rows, accuracy %.4f", n, float64(correct)/float64(n))
	}
	return fmt.Sprintf("PREDICT: %d rows", n)
}
