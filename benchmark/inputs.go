package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"corgipile/internal/data"
)

// inputs is everything one run feeds the program, all of it a pure function
// of the workload and the seed.
type inputs struct {
	w    workload
	seed int64
	// means holds one class centre per class, mutually orthogonal and all
	// of length separation, so every seed gives a rotation of the same
	// geometry. data.SyntheticBinary draws the centres independently, and
	// the distance between them (and with it the final loss, by 2x, and the
	// hinge-gradient work per tuple, by 10%) then depends on the seed.
	means [][]float64
}

const (
	separation = 2.0
	noise      = 1.0
	// insertRows is the number of tuples in one INSERT statement.
	insertRows = 20
	// predictLimit is the LIMIT of the PREDICT statement every phase sends.
	predictLimit = 10
)

func newInputs(w workload, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	means := make([][]float64, w.Classes)
	for k := range means {
		m := make([]float64, w.Features)
		for j := range m {
			m[j] = rng.NormFloat64()
		}
		// Gram-Schmidt against the centres already drawn.
		for _, prev := range means[:k] {
			var dot float64
			for j := range m {
				dot += m[j] * prev[j]
			}
			for j := range m {
				m[j] -= dot / (separation * separation) * prev[j]
			}
		}
		var norm float64
		for _, v := range m {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		for j := range m {
			m[j] *= separation / norm
		}
		means[k] = m
	}
	return &inputs{w: w, seed: seed, means: means}
}

// label maps a class index to the stored label: -1/+1 for two classes (what
// the binary models train on), the index itself otherwise.
func (in *inputs) label(class int) float64 {
	if in.w.Classes == 2 {
		return float64(2*class - 1)
	}
	return float64(class)
}

// row draws one tuple of the given class.
func (in *inputs) row(rng *rand.Rand, class int) []float64 {
	x := make([]float64, in.w.Features)
	for j := range x {
		x[j] = in.means[class][j] + rng.NormFloat64()*noise
	}
	return x
}

// dataset generates the table's initial contents in clustered order (all of
// class 0, then all of class 1, ...), the order the paper's method exists for.
func (in *inputs) dataset() *data.Dataset {
	rng := rand.New(rand.NewSource(in.seed + 1))
	ds := &data.Dataset{
		Name: "t", Task: data.TaskBinary, Features: in.w.Features, Classes: in.w.Classes,
		Tuples: make([]data.Tuple, 0, in.w.Tuples),
	}
	if in.w.Classes > 2 {
		ds.Task = data.TaskMulticlass
	}
	for i := 0; i < in.w.Tuples; i++ {
		class := i * in.w.Classes / in.w.Tuples
		ds.Tuples = append(ds.Tuples, data.Tuple{ID: int64(i), Label: in.label(class), Dense: in.row(rng, class)})
	}
	return ds
}

// writeFile writes the dataset as the LIBSVM file CREATE TABLE loads.
func (in *inputs) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := data.WriteLIBSVM(f, in.dataset()); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func createSQL(path string) string {
	return fmt.Sprintf("CREATE TABLE t FROM '%s' WITH device='ssd', block_size=64KB", path)
}

// trainSQL is the i-th TRAIN of a run. Every one uses the same seed, so
// every one must produce the same loss column.
func (in *inputs) trainSQL(i int) string {
	w := in.w
	return fmt.Sprintf("SELECT * FROM t TRAIN BY %s MODEL m%d WITH learning_rate=0.05, max_epoch_num=%d, shuffle='corgipile', batch_size=%d, procs=1, seed=%d",
		w.Model, i, w.Epochs, w.Batch, in.seed)
}

func predictSQL(limit int) string {
	return fmt.Sprintf("SELECT * FROM t PREDICT BY m0 LIMIT %d", limit)
}

// requests is one connection's request stream for the serve phase. The
// stream is a function of (seed, connection) alone; how far a run gets
// through it depends on how fast the program answers.
type requests struct {
	in    *inputs
	rng   *rand.Rand
	conn  int
	every int
	n     int
}

// never, as a request stream's INSERT period, makes it PREDICTs only.
const never = 0

func (in *inputs) requests(conn, insertEvery int) *requests {
	return &requests{in: in, rng: rand.New(rand.NewSource(in.seed*1000 + int64(conn) + 2)), conn: conn, every: insertEvery}
}

// next returns the next statement and whether it is an INSERT: every
// every-th request is. A second connection is offset by half a period so
// the two do not write in step.
func (r *requests) next() (sql string, insert bool) {
	i := r.n + r.conn*r.every/2
	r.n++
	if r.every == never || i%r.every != r.every-1 {
		return predictSQL(predictLimit), false
	}
	return r.in.insertSQL(r.rng), true
}

// insertSQL renders one INSERT of insertRows tuples. Literals are written
// without an exponent: the lexer reads 1e-05 as a number with a unit suffix
// and rejects it.
func (in *inputs) insertSQL(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("INSERT INTO t VALUES ")
	for r := 0; r < insertRows; r++ {
		if r > 0 {
			b.WriteString(", ")
		}
		class := rng.Intn(in.w.Classes)
		b.WriteByte('(')
		b.WriteString(strconv.FormatFloat(in.label(class), 'f', -1, 64))
		for _, v := range in.row(rng, class) {
			b.WriteString(", ")
			b.WriteString(strconv.FormatFloat(v, 'f', -1, 64))
		}
		b.WriteByte(')')
	}
	return b.String()
}
