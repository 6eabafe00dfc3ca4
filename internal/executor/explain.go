package executor

import (
	"fmt"

	"corgipile/internal/obs"
	"corgipile/internal/shuffle"
)

// planShape is the static plan tree plus direct handles to its nodes, so
// BuildSGDPlan can attach profiling measurements to the exact nodes the
// renderer will print.
type planShape struct {
	root   *obs.PlanStats // SGD
	filter *obs.PlanStats // nil without a WHERE predicate
	access *obs.PlanStats // top access-path node
	inner  *obs.PlanStats // BlockShuffle under TupleShuffle (CorgiPile only)
}

// buildShape constructs the operator tree a PlanConfig would build over
// src, without building any operators.
func buildShape(src shuffle.Source, cfg PlanConfig) planShape {
	if cfg.BufferFraction <= 0 {
		cfg.BufferFraction = shuffle.DefaultBufferFraction
	}
	model := "?"
	if cfg.SGD.Model != nil {
		model = cfg.SGD.Model.Name()
	}
	opt := "?"
	if cfg.SGD.Opt != nil {
		opt = cfg.SGD.Opt.Name()
	}
	batch := cfg.SGD.BatchSize
	if batch < 1 {
		batch = 1
	}
	sh := planShape{root: &obs.PlanStats{
		Name: "SGD",
		Detail: fmt.Sprintf("model=%s optimizer=%s epochs=%d batch=%d",
			model, opt, cfg.SGD.Epochs, batch),
	}}

	parent := sh.root
	if cfg.Filter != nil {
		desc := cfg.FilterDesc
		if desc == "" {
			desc = "predicate"
		}
		sh.filter = &obs.PlanStats{Name: "Filter", Detail: desc}
		parent.Children = append(parent.Children, sh.filter)
		parent = sh.filter
	}

	switch cfg.Shuffle {
	case shuffle.KindNoShuffle:
		sh.access = &obs.PlanStats{
			Name:   "Scan",
			Detail: fmt.Sprintf("blocks=%d, sequential", src.NumBlocks()),
		}
	case shuffle.KindBlockOnly:
		sh.access = &obs.PlanStats{
			Name:   "BlockShuffle",
			Detail: fmt.Sprintf("blocks=%d, reshuffled per epoch", src.NumBlocks()),
		}
	case shuffle.KindCorgiPile, "":
		capTuples := int(cfg.BufferFraction * float64(src.NumTuples()))
		if capTuples < 1 {
			capTuples = 1
		}
		mode := "single-buffer"
		if cfg.DoubleBuffer {
			mode = "double-buffer"
		}
		sh.access = &obs.PlanStats{
			Name: "TupleShuffle",
			Detail: fmt.Sprintf("buffer=%d tuples ≈ %.0f%%, %s",
				capTuples, cfg.BufferFraction*100, mode),
			BufferCap: capTuples,
		}
		sh.inner = &obs.PlanStats{
			Name:   "BlockShuffle",
			Detail: fmt.Sprintf("blocks=%d, reshuffled per epoch", src.NumBlocks()),
		}
		sh.access.Children = append(sh.access.Children, sh.inner)
	default:
		sh.access = &obs.PlanStats{
			Name: fmt.Sprintf("Strategy[%s]", cfg.Shuffle),
			Detail: fmt.Sprintf("buffer=%.0f%% of %d tuples",
				cfg.BufferFraction*100, src.NumTuples()),
		}
	}
	parent.Children = append(parent.Children, sh.access)

	if cfg.Resilience.Enabled() {
		r := cfg.Resilience
		retries := r.Retry.MaxAttempts - 1
		if retries < 0 {
			retries = 0
		}
		cap := r.MaxSkipFraction
		if cap <= 0 {
			cap = shuffle.DefaultMaxSkipFraction
		}
		sh.root.Resilience = fmt.Sprintf("Resilience: retries=%d on_corrupt=%s max_skip=%.1f%%",
			retries, r.OnCorrupt, cap*100)
	}
	return sh
}

// PlanShape returns the static physical-plan tree a PlanConfig would build
// over src, with no runtime statistics — the EXPLAIN (FORMAT JSON)
// payload.
func PlanShape(src shuffle.Source, cfg PlanConfig) *obs.PlanStats {
	return buildShape(src, cfg).root
}
