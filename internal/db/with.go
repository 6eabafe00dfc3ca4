package db

import (
	"errors"
	"fmt"
	"math"
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
	"learning_rate":     number(func(r *trainRun, x float64) { r.LearningRate = x }, nonZero),
	"decay":             number(func(r *trainRun, x float64) { r.Decay = x }, nonZero),
	"seed":              integer(func(r *trainRun, n int) { r.Seed = int64(n) }, nonZero),
	"max_epoch_num":     integer(func(r *trainRun, n int) { r.Epochs = n }, nonZero, nonNegative),
	"batch_size":        integer(func(r *trainRun, n int) { r.BatchSize = n }, nonNegative),
	"buffer_fraction":   number(func(r *trainRun, x float64) { r.BufferFraction = x }, positive),
	"retries":           integer(func(r *trainRun, n int) { r.Retries = n }, nonNegative),
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

// check refuses a numeric value, saying why.
type check func(x float64) error

// number is the entry of a numeric key: the value must be a number that
// passes every check.
func number(set func(*trainRun, float64), checks ...check) trainKey {
	return func(r *trainRun, v sqlparse.Value) error {
		if !v.IsNum {
			return errors.New("want a number")
		}
		for _, c := range checks {
			if err := c(v.Num); err != nil {
				return err
			}
		}
		set(r, v.Num)
		return nil
	}
}

// integer is number for a key whose field is an integer: a fraction would
// be truncated into another run, so it is refused.
func integer(set func(*trainRun, int), checks ...check) trainKey {
	return number(func(r *trainRun, x float64) { set(r, int(x)) }, append([]check{whole}, checks...)...)
}

func whole(x float64) error {
	if x != math.Trunc(x) {
		return errors.New("want a whole number")
	}
	return nil
}

// nonZero guards a field that reads 0 as unset: there an explicit 0 would
// silently train with the default.
func nonZero(x float64) error {
	if x == 0 {
		return errors.New("0 reads as unset; leave the key out for the default")
	}
	return nil
}

func nonNegative(x float64) error {
	if x < 0 {
		return errors.New("want 0 or more")
	}
	return nil
}

func positive(x float64) error {
	if x <= 0 {
		return errors.New("want more than 0")
	}
	return nil
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
