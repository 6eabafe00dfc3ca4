package db

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"corgipile/internal/executor"
	"corgipile/internal/shuffle"
	"corgipile/internal/sqlparse"
	"corgipile/internal/storage"
)

const validTrainKeys = "(valid keys: batch_size, buffer_fraction, decay, double_buffer, learning_rate, " +
	"max_epoch_num, max_skip_fraction, on_corrupt, optimizer, procs, resume, retries, retry_backoff_ms, seed, shuffle)"

// Every WITH list TRAIN must refuse, with its exact error text, through
// both TRAIN and EXPLAIN. Each of them trained, silently, before the WITH
// keys were checked. When several keys are bad, the first in name order is
// the one reported.
func TestTrainWithMustFail(t *testing.T) {
	tests := []struct {
		with string
		want string
	}{
		{with: `lerning_rate=9`, want: "db: TRAIN WITH lerning_rate=9: unknown key " + validTrainKeys},
		{with: `l2=0.5`, want: "db: TRAIN WITH l2=0.5: unknown key " + validTrainKeys},
		{with: `epochs=1`, want: "db: TRAIN WITH epochs=1: unknown key " + validTrainKeys},
		{with: `max_epoch_num=3, learning_rate=0.05, l2=0.5, lerning_rate=9, epochs=1`,
			want: "db: TRAIN WITH epochs=1: unknown key " + validTrainKeys},
		{with: `learning_rate='fast'`, want: "db: TRAIN WITH learning_rate='fast': want a number " + validTrainKeys},
		{with: `double_buffer='ture'`,
			want: "db: TRAIN WITH double_buffer='ture': want true, false, on, off, yes or no " + validTrainKeys},
		{with: `max_epoch_num=0`,
			want: "db: TRAIN WITH max_epoch_num=0: 0 reads as unset; leave the key out for the default " + validTrainKeys},
		{with: `seed=0`, want: "db: TRAIN WITH seed=0: 0 reads as unset; leave the key out for the default " + validTrainKeys},
		{with: `seed=0.5`, want: "db: TRAIN WITH seed=0.5: want a whole number " + validTrainKeys},
		{with: `max_epoch_num=0.5`, want: "db: TRAIN WITH max_epoch_num=0.5: want a whole number " + validTrainKeys},
		{with: `max_epoch_num=-3`, want: "db: TRAIN WITH max_epoch_num=-3: want 0 or more " + validTrainKeys},
		{with: `batch_size=2.5`, want: "db: TRAIN WITH batch_size=2.5: want a whole number " + validTrainKeys},
		{with: `batch_size=-4`, want: "db: TRAIN WITH batch_size=-4: want 0 or more " + validTrainKeys},
		{with: `retries=1.5`, want: "db: TRAIN WITH retries=1.5: want a whole number " + validTrainKeys},
		{with: `retries=-1`, want: "db: TRAIN WITH retries=-1: want 0 or more " + validTrainKeys},
		{with: `buffer_fraction=-0.2`, want: "db: TRAIN WITH buffer_fraction=-0.2: want more than 0 " + validTrainKeys},
		{with: `buffer_fraction=0`, want: "db: TRAIN WITH buffer_fraction=0: want more than 0 " + validTrainKeys},
		{with: `on_corrupt='shrug'`, want: `db: shuffle: unknown failure policy "shrug" (want fail or skip)`},
	}
	s := NewSession()
	mustExec(t, s, `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.02)`)
	for _, tt := range tests {
		for _, sql := range []string{
			`SELECT * FROM t TRAIN BY svm MODEL m WITH ` + tt.with,
			`EXPLAIN SELECT * FROM t TRAIN BY svm WITH ` + tt.with,
		} {
			_, err := s.Exec(sql)
			if err == nil {
				t.Errorf("%s: succeeded, want %q", sql, tt.want)
			} else if err.Error() != tt.want {
				t.Errorf("%s:\n got %q\nwant %q", sql, err, tt.want)
			}
		}
	}
	if _, ok := s.Model("m"); ok {
		t.Error("a refused TRAIN stored its model")
	}
}

// Every TRAIN whose steps overflow must fail at the first epoch that ends on
// a non-finite loss or weight, naming the epoch and the first bad
// coordinate, and store nothing: each model at a learning rate of 1e308,
// whose first step overflows a weight to ±Inf and the next makes it NaN.
// Without the check each of them stored a NaN model that PREDICT served.
func TestTrainDivergedMustFail(t *testing.T) {
	tests := []struct {
		table, model string
		want         string
	}{
		{table: "t", model: "lr", want: "core: epoch 1 diverged: loss NaN, w[0] = NaN"},
		{table: "t", model: "svm", want: "core: epoch 1 diverged: loss NaN, w[0] = NaN"},
		{table: "t", model: "linreg", want: "core: epoch 1 diverged: loss NaN, w[0] = NaN"},
		{table: "t", model: "fm", want: "core: epoch 1 diverged: loss NaN, w[0] = NaN"},
		{table: "c", model: "softmax", want: "core: epoch 1 diverged: loss NaN, w[0] = NaN"},
		{table: "c", model: "mlp", want: "core: epoch 1 diverged: loss NaN, w[0] = NaN"},
	}
	s := NewSession()
	mustExec(t, s, `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.02)`)
	mustExec(t, s, `CREATE TABLE c AS SYNTHETIC(workload='cifar10', scale=0.04)`)
	for _, tt := range tests {
		sql := `SELECT * FROM ` + tt.table + ` TRAIN BY ` + tt.model + ` MODEL m WITH learning_rate=1e308, max_epoch_num=3`
		_, err := s.Exec(sql)
		if err == nil {
			t.Errorf("%s: succeeded, want %q", sql, tt.want)
		} else if err.Error() != tt.want {
			t.Errorf("%s:\n got %q\nwant %q", sql, err, tt.want)
		}
	}
	if _, ok := s.Model("m"); ok {
		t.Error("a diverged TRAIN stored its model")
	}
}

// A diverged TRAIN on a durable session fails with the divergence error and
// reaches neither the catalog nor the WAL, so recovery and replicas never
// see it; a diverged resume leaves the model it resumed as it was. (Before
// the check such a TRAIN failed here too, on the WAL's JSON encoder, which
// has no NaN: "db: wal payload: json: unsupported value: NaN".)
func TestTrainDivergedLogsNothing(t *testing.T) {
	dir := t.TempDir()
	s, _ := newDurableSession(t, dir)
	mustExec(t, s, walTestCreate)
	mustExec(t, s, `SELECT * FROM t TRAIN BY svm MODEL m1 WITH max_epoch_num=1`)
	m1, _ := s.Model("m1")
	w1 := slices.Clone(m1.W)
	mustExec(t, s, insertSQL(t, s, "t", 40)) // blocks for the resume
	recs := collectRecords(s)
	for _, sql := range []string{
		`SELECT * FROM t TRAIN BY linreg MODEL m2 WITH learning_rate=1e308, max_epoch_num=2`,
		`SELECT * FROM t TRAIN BY svm MODEL m1 WITH resume='m1', learning_rate=1e308, max_epoch_num=2`,
	} {
		if _, err := s.Exec(sql); err == nil || !strings.HasPrefix(err.Error(), "core: epoch 1 diverged: ") {
			t.Fatalf("%s: got %v, want a divergence error", sql, err)
		}
	}
	for _, rec := range *recs {
		if rec.Type == storage.WALPutModel {
			t.Fatal("a diverged TRAIN logged a put-model record")
		}
	}
	if _, ok := s.Model("m2"); ok {
		t.Error("a diverged TRAIN stored its model")
	}
	if m, _ := s.Model("m1"); !slices.Equal(m.W, w1) {
		t.Error("a diverged resume changed the model it resumed")
	}
	s.Close()

	re, _ := newDurableSession(t, dir)
	if _, ok := re.Model("m2"); ok {
		t.Error("recovery installed a diverged model")
	}
	if m, _ := re.Model("m1"); !slices.Equal(m.W, w1) {
		t.Error("recovery changed the model a diverged resume read")
	}
}

// The SQL spelling and the TrainConfig spelling of one run build the same
// plan knobs. The TrainConfig side states SQL's two own defaults, 20
// epochs and double buffering, and leaves every other knob to the
// library's default, as SQL does.
func TestTrainWithMatchesTrainConfig(t *testing.T) {
	tests := []struct {
		with string
		cfg  executor.TrainConfig
	}{
		{with: ``, cfg: executor.TrainConfig{Epochs: 20, DoubleBuffer: true}},
		{with: `learning_rate=0.1, max_epoch_num=3`,
			cfg: executor.TrainConfig{LearningRate: 0.1, Epochs: 3, DoubleBuffer: true}},
		{with: `shuffle='block_only', buffer_fraction=0.2, double_buffer=false`,
			cfg: executor.TrainConfig{Strategy: shuffle.KindBlockOnly, BufferFraction: 0.2, Epochs: 20}},
		{with: `retries=2, retry_backoff_ms=5, on_corrupt='skip', max_skip_fraction=0.1`,
			cfg: executor.TrainConfig{Retries: 2, RetryBackoff: 5 * time.Millisecond, OnCorrupt: "skip",
				MaxSkipFraction: 0.1, Epochs: 20, DoubleBuffer: true}},
		{with: `optimizer='adam'`, cfg: executor.TrainConfig{Optimizer: "adam", Epochs: 20, DoubleBuffer: true}},
		{with: `seed=7, decay=0.9, batch_size=16, procs=4`,
			cfg: executor.TrainConfig{Seed: 7, Decay: 0.9, BatchSize: 16, Epochs: 20, DoubleBuffer: true}},
	}
	s := NewSession()
	mustExec(t, s, `CREATE TABLE t AS SYNTHETIC(workload='susy', scale=0.02)`)
	entry, _ := s.Table("t")
	// knobs are the PlanConfig fields a TRAIN's knobs decide; the model
	// and optimizer compare by type and every field (name, LR0, Decay, L2).
	knobs := func(pc executor.PlanConfig) []any {
		return []any{pc.Shuffle, pc.BufferFraction, pc.DoubleBuffer, pc.Seed, pc.Resilience,
			pc.SGD.Epochs, pc.SGD.BatchSize, pc.SGD.Model, pc.SGD.Opt}
	}
	for _, tt := range tests {
		sql := `SELECT * FROM t TRAIN BY svm`
		if tt.with != "" {
			sql += ` WITH ` + tt.with
		}
		st, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		fromSQL, _, err := s.trainPlanConfig(st.(*sqlparse.Train), entry, false, executor.TrainConfig{})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		tt.cfg.Model = "svm"
		fromLib, err := tt.cfg.Plan(entry.Table.Features(), entry.Table.Classes())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := knobs(fromSQL), knobs(fromLib); !reflect.DeepEqual(got, want) {
			t.Errorf("WITH %s:\n SQL %+v\n lib %+v", tt.with, got, want)
		}
	}
}
