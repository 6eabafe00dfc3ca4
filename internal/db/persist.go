package db

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"corgipile/internal/executor"
	"corgipile/internal/ml"
	"corgipile/internal/sqlparse"
)

// modelFile is the on-disk JSON representation of a trained model.
type modelFile struct {
	// Format versions the file layout.
	Format int `json:"format"`
	// Kind is the model type ("svm", "lr", "linreg", "softmax", "mlp").
	Kind     string    `json:"kind"`
	Features int       `json:"features"`
	Classes  int       `json:"classes"`
	Hidden   int       `json:"hidden,omitempty"` // MLP hidden width
	W        []float64 `json:"weights"`
}

const modelFileFormat = 1

// SaveModelFile writes a trained model's weights and metadata to the JSON
// model-file format that LOAD MODEL (and LoadModelFile) reads; kind is the
// name m was built from.
func SaveModelFile(path, kind string, m ml.Model, features, classes int, w []float64) error {
	mf := modelFile{
		Format:   modelFileFormat,
		Kind:     kind,
		Features: features,
		Classes:  classes,
		Hidden:   hiddenOf(m),
		W:        w,
	}
	buf, err := json.Marshal(mf)
	if err != nil {
		return fmt.Errorf("db: encode model: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("db: %w", err)
	}
	return nil
}

// LoadModelFile reads a model file and reconstructs the model and weights.
func LoadModelFile(path string) (ml.Model, *modelFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("db: %w", err)
	}
	var mf modelFile
	if err := json.Unmarshal(buf, &mf); err != nil {
		return nil, nil, fmt.Errorf("db: decode model: %w", err)
	}
	if mf.Format != modelFileFormat {
		return nil, nil, fmt.Errorf("db: unsupported model file format %d", mf.Format)
	}
	model, want, err := rebuildModel(mf.Kind, mf.Classes, mf.Hidden, mf.Features)
	if err != nil {
		return nil, nil, fmt.Errorf("db: model file: %w", err)
	}
	if want != len(mf.W) {
		return nil, nil, fmt.Errorf("db: model file weights have %d values, want %d", len(mf.W), want)
	}
	return model, &mf, nil
}

// rebuildModel builds a persisted model (a model file or a WAL put-model
// record) from its kind, classes and MLP hidden width (0 keeps ml.New's),
// and returns it with the number of weights it takes over features.
func rebuildModel(kind string, classes, hidden, features int) (ml.Model, int, error) {
	model, err := ml.New(kind, maxInt(classes, 2))
	if err != nil {
		return nil, 0, err
	}
	if mlp, ok := model.(ml.MLP); ok && hidden > 0 {
		mlp.Hidden = hidden
		model = mlp
	}
	return model, model.Dim(features), nil
}

// hiddenOf is the hidden width a model file or WAL record stores for m:
// the MLP's, 0 for every other model.
func hiddenOf(m ml.Model) int {
	if mlp, ok := m.(ml.MLP); ok {
		return mlp.Hidden
	}
	return 0
}

// execSave serializes a catalog model to a JSON file.
func (s *Session) execSave(st *sqlparse.SaveModel) (*Result, error) {
	m, ok := s.Model(st.Name)
	if !ok {
		return nil, fmt.Errorf("db: unknown model %q", st.Name)
	}
	if err := SaveModelFile(st.Path, m.Kind, m.Model, m.Features, m.Classes, m.W); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("SAVE MODEL: %q → %s", m.Name, st.Path)}, nil
}

// execLoad restores a saved model into the catalog.
func (s *Session) execLoad(st *sqlparse.LoadModel) (*Result, error) {
	name := strings.ToLower(st.Name)
	if _, exists := s.models[name]; exists {
		return nil, fmt.Errorf("db: model %q already exists", st.Name)
	}
	model, mf, err := LoadModelFile(st.Path)
	if err != nil {
		return nil, err
	}
	entry := &ModelEntry{
		Name: name, Kind: mf.Kind, Model: model, W: mf.W,
		Features: mf.Features, Classes: mf.Classes,
		Epochs: []executor.EpochRow{},
	}
	if err := s.logModel(entry); err != nil {
		return nil, err
	}
	s.models[name] = entry
	return &Result{Message: fmt.Sprintf("LOAD MODEL: %q ← %s", name, st.Path)}, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
