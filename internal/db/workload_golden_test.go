package db

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"corgipile/internal/data"
	"corgipile/internal/storage"
)

// workloadShape is one benchmark/ workload shape at 1/25 of its tuples: the
// same table layout, model, WITH clause and 20-row INSERT.
type workloadShape struct {
	name                      string
	model                     string
	tuples, features, classes int
	epochs, batch             int
}

var workloadShapes = []workloadShape{
	// train_narrow, serve_predict and serve_mixed.
	{name: "svm", model: "svm", tuples: 30_000 / 25, features: 18, classes: 2, epochs: 10, batch: 1},
	// train_mlp_batch.
	{name: "mlp", model: "mlp", tuples: 2_000 / 25, features: 64, classes: 10, epochs: 8, batch: 64},
}

// workloadCentres draws one class centre per class, mutually orthogonal and
// all of length 2, as the benchmark's inputs do.
func workloadCentres(rng *rand.Rand, classes, features int) [][]float64 {
	const sep = 2.0
	means := make([][]float64, classes)
	for k := range means {
		m := make([]float64, features)
		for j := range m {
			m[j] = rng.NormFloat64()
		}
		for _, prev := range means[:k] {
			var dot float64
			for j := range m {
				dot += m[j] * prev[j]
			}
			for j := range m {
				m[j] -= dot / (sep * sep) * prev[j]
			}
		}
		var norm float64
		for _, v := range m {
			norm += v * v
		}
		for j := range m {
			m[j] *= sep / math.Sqrt(norm)
		}
		means[k] = m
	}
	return means
}

// run drives the shape's session script — CREATE from a LIBSVM file, TRAIN,
// INSERT of 20 rows, reopen — and renders what it pins: the TRAIN's loss
// column and last epoch's simulated seconds as the benchmark reads them, the
// INSERT's WAL bytes per user byte, and a hash of the bits of every epoch's
// loss, accuracy and seconds and of the trained weights.
func (w workloadShape) run(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	means := workloadCentres(rng, w.classes, w.features)
	label := func(class int) float64 {
		if w.classes == 2 {
			return float64(2*class - 1)
		}
		return float64(class)
	}
	row := func(class int) []float64 {
		x := make([]float64, w.features)
		for j := range x {
			x[j] = means[class][j] + rng.NormFloat64()
		}
		return x
	}
	ds := &data.Dataset{Features: w.features, Classes: w.classes}
	for i := 0; i < w.tuples; i++ {
		class := i * w.classes / w.tuples // clustered
		ds.Tuples = append(ds.Tuples, data.Tuple{ID: int64(i), Label: label(class), Dense: row(class)})
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "t.libsvm")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := data.WriteLIBSVM(f, ds); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	walDir := filepath.Join(dir, "wal")
	s := NewSession()
	counter := &storage.WriteFaults{} // injects nothing; counts the bytes
	if _, err := s.OpenWALOptions(walDir, WALOptions{WrapSyncer: counter.Wrap}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustExec(t, s, fmt.Sprintf("CREATE TABLE t FROM '%s' WITH device='ssd', block_size=64KB", path))
	res := mustExec(t, s, fmt.Sprintf("SELECT * FROM t TRAIN BY %s MODEL m0 WITH learning_rate=0.05, max_epoch_num=%d, shuffle='corgipile', batch_size=%d, procs=1, seed=1",
		w.model, w.epochs, w.batch))
	var loss []string
	for _, r := range res.Rows {
		loss = append(loss, r[1])
	}
	simS := res.Rows[len(res.Rows)-1][3]
	m, _ := s.Model("m0")
	h := fnv.New64a()
	for _, e := range m.Epochs {
		fmt.Fprintf(h, "%x,%x,%x;", math.Float64bits(e.AvgLoss), math.Float64bits(e.TrainAcc), math.Float64bits(e.Seconds))
	}
	for _, v := range m.W {
		fmt.Fprintf(h, "%x,", math.Float64bits(v))
	}

	var ins strings.Builder
	ins.WriteString("INSERT INTO t VALUES ")
	const insertRows = 20
	for r := 0; r < insertRows; r++ {
		if r > 0 {
			ins.WriteString(", ")
		}
		class := rng.Intn(w.classes)
		ins.WriteString("(" + strconv.FormatFloat(label(class), 'f', -1, 64))
		for _, v := range row(class) {
			ins.WriteString(", " + strconv.FormatFloat(v, 'f', -1, 64))
		}
		ins.WriteString(")")
	}
	before := counter.Writes()
	mustExec(t, s, ins.String())
	walRatio := float64(counter.Writes()-before) / float64(insertRows*w.features*8)

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, _ := newDurableSession(t, walDir)
	if e, ok := re.Table("t"); !ok || e.Table.NumTuples() != w.tuples+insertRows {
		t.Fatalf("reopen: table t missing or short, want %d tuples", w.tuples+insertRows)
	}
	if rm, ok := re.Model("m0"); !ok || !slices.Equal(rm.W, m.W) {
		t.Fatal("reopen: model m0 missing or its weights changed")
	}
	return fmt.Sprintf("loss=%v sim_s=%s wal=%v bits=%016x", loss, simS, walRatio, h.Sum64())
}

// TestWorkloadGolden pins, through db.Session with a WAL, the three
// must-not-move metrics of every benchmark/ workload shape at reduced scale:
// the TRAIN's loss column (train_final_loss is its last cell), the last
// epoch's simulated seconds (train_sim_s) and the WAL bytes per user byte of
// a 20-row INSERT (wal_bytes_per_user_byte), plus the bits behind them. The
// literals were captured before the MLP's gap-free forward path; a change
// that moves one changes what the benchmark reports. CORGI_PRINT_GOLDEN=1
// prints the observed values for a deliberate recapture.
func TestWorkloadGolden(t *testing.T) {
	for _, w := range workloadShapes {
		got := w.run(t)
		if os.Getenv("CORGI_PRINT_GOLDEN") != "" {
			fmt.Printf("\t%q: `%s`,\n", w.name, got)
			continue
		}
		if got != workloadGolden[w.name] {
			t.Errorf("%s:\n got %s\nwant %s", w.name, got, workloadGolden[w.name])
		}
	}
}

var workloadGolden = map[string]string{
	"svm": `loss=[0.137723 0.140191 0.129149 0.199002 0.202978 0.113632 0.175458 0.153131 0.124885 0.134821] sim_s=0.009 wal=1.1569444444444446 bits=d80358c77609f10f`,
	"mlp": `loss=[3.108391 2.889462 2.720974 2.592075 2.488704 2.403825 2.333482 2.273729] sim_s=0.002 wal=1.044140625 bits=171a052ddf3d9e68`,
}
