package db

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"corgipile/internal/executor"
	"corgipile/internal/shuffle"
	"corgipile/internal/sqlparse"
)

// sqlTrain is the run a TRAIN statement describes before its WITH list:
// the library's defaults, except that SQL trains 20 epochs with double
// buffering (DESIGN.md, "SQL keeps 20 epochs and double buffering").
var sqlTrain = executor.TrainConfig{Epochs: 20, DoubleBuffer: true}

// trainRun is what a TRAIN statement's WITH list resolves to: the run's
// knobs, and the model it resumes (none when empty).
type trainRun struct {
	executor.TrainConfig
	resume string
}

// trainKeys maps each WITH key TRAIN accepts to what it sets. It is also
// the check: a key that is not here is an error, and so is a value its
// entry rejects.
var trainKeys = map[string]trainKey{
	"learning_rate":     nonZero(func(r *trainRun, x float64) { r.LearningRate = x }),
	"decay":             nonZero(func(r *trainRun, x float64) { r.Decay = x }),
	"seed":              nonZero(func(r *trainRun, x float64) { r.Seed = int64(x) }),
	"max_epoch_num":     nonZero(func(r *trainRun, x float64) { r.Epochs = int(x) }),
	"batch_size":        number(func(r *trainRun, x float64) { r.BatchSize = int(x) }),
	"buffer_fraction":   number(func(r *trainRun, x float64) { r.BufferFraction = x }),
	"retries":           number(func(r *trainRun, x float64) { r.Retries = int(x) }),
	"retry_backoff_ms":  number(func(r *trainRun, x float64) { r.RetryBackoff = time.Duration(x * float64(time.Millisecond)) }),
	"max_skip_fraction": number(func(r *trainRun, x float64) { r.MaxSkipFraction = x }),
	"optimizer":         func(r *trainRun, v sqlparse.Value) error { r.Optimizer = v.Raw; return nil },
	"shuffle":           func(r *trainRun, v sqlparse.Value) error { r.Strategy = shuffle.Kind(v.Raw); return nil },
	"on_corrupt":        func(r *trainRun, v sqlparse.Value) error { r.OnCorrupt = v.Raw; return nil },
	"resume":            func(r *trainRun, v sqlparse.Value) error { r.resume = v.Raw; return nil },
	"double_buffer": func(r *trainRun, v sqlparse.Value) error {
		switch strings.ToLower(v.Raw) {
		case "true", "false", "on", "off", "yes", "no":
		default:
			if !v.IsNum {
				return errors.New("want true, false, on, off, yes or no")
			}
		}
		r.DoubleBuffer = v.Bool()
		return nil
	},
	// procs once set a number of gradient goroutines. A job now trains on
	// one goroutine, but clients still send it, so it is accepted and read
	// by nothing.
	"procs": func(*trainRun, sqlparse.Value) error { return nil },
}

// trainKey is a trainKeys entry: it sets its field, or says why it cannot.
type trainKey func(*trainRun, sqlparse.Value) error

// number is the entry of a numeric key, and nonZero that of one whose
// TrainConfig field reads 0 as unset: there an explicit 0 would silently
// train with the default, so it is refused.
func number(set func(*trainRun, float64)) trainKey  { return numeric(false, set) }
func nonZero(set func(*trainRun, float64)) trainKey { return numeric(true, set) }

func numeric(nonZero bool, set func(*trainRun, float64)) trainKey {
	return func(r *trainRun, v sqlparse.Value) error {
		switch {
		case !v.IsNum:
			return errors.New("want a number")
		case nonZero && v.Num == 0:
			return errors.New("0 reads as unset; leave the key out for the default")
		}
		set(r, v.Num)
		return nil
	}
}

// resolveTrain resolves a TRAIN statement's WITH list, starting from
// sqlTrain. The first key, in name order, that the table rejects is the
// error, naming the key and listing the valid ones.
func resolveTrain(p sqlparse.Params) (trainRun, error) {
	run := trainRun{TrainConfig: sqlTrain}
	for _, key := range sortedKeys(p) {
		v := p[key]
		err := errors.New("unknown key")
		if set, ok := trainKeys[key]; ok {
			err = set(&run, v)
		}
		if err != nil {
			shown := v.Raw
			if !v.IsNum {
				shown = "'" + v.Raw + "'"
			}
			return trainRun{}, fmt.Errorf("db: TRAIN WITH %s=%s: %v (valid keys: %s)",
				key, shown, err, strings.Join(sortedKeys(trainKeys), ", "))
		}
	}
	// on_corrupt's values are the failure-policy parser's to check; its
	// error is reported as it reads.
	if _, err := shuffle.ParseFailurePolicy(run.OnCorrupt); err != nil {
		return trainRun{}, fmt.Errorf("db: %w", err)
	}
	return run, nil
}
