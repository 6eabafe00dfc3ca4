package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// This file defines PlanStats, the executed-plan profile of one physical
// operator tree: the static plan shape (name + detail per node) annotated
// with per-node runtime statistics — rows produced, exclusive ("self") vs
// inclusive ("total") time on both the simulated and wall clocks, leaf I/O
// traffic, fault accounting, and buffer high-water marks. The executor
// fills it; EXPLAIN ANALYZE, the /run/plan endpoint, and run-dir artifacts
// render it. It lives in obs (not the executor) so the telemetry plane can
// carry plan snapshots without importing the execution engine.

// PlanStats is one node of a physical operator tree, with optional runtime
// ("actual") statistics. A tree with zero-valued actuals renders as the
// static EXPLAIN plan; after execution the same tree renders as EXPLAIN
// ANALYZE. Exclusive times telescope: summing SelfSimSeconds over every
// node of the tree yields the root's TotalSimSeconds exactly.
type PlanStats struct {
	// Name is the operator name ("SGD", "TupleShuffle", "Strategy[mrs]").
	Name string `json:"name"`
	// Detail is the static parenthetical ("blocks=10, sequential").
	Detail string `json:"detail,omitempty"`

	// Rows is the number of tuples the node produced across the run; Calls
	// the number of pulls its parent made; Loops the number of scans it
	// served (one per epoch for training plans). A pull is a Next() call or,
	// for the BlockShuffle node under TupleShuffle, a block pull: that
	// node's Calls counts blocks handed up (plus the end-of-scan pull of
	// each loop), not tuples. Calls is JSON-only; the text rendering omits
	// it.
	Rows  int64 `json:"rows,omitempty"`
	Calls int64 `json:"calls,omitempty"`
	Loops int64 `json:"loops,omitempty"`

	// SelfSimSeconds is the node's exclusive simulated time (inclusive time
	// minus its direct children's inclusive time); TotalSimSeconds its
	// inclusive simulated time. SelfWallSeconds/TotalWallSeconds are the
	// same attribution on the wall clock.
	SelfSimSeconds   float64 `json:"self_sim_seconds"`
	TotalSimSeconds  float64 `json:"total_sim_seconds"`
	SelfWallSeconds  float64 `json:"self_wall_seconds"`
	TotalWallSeconds float64 `json:"total_wall_seconds"`

	// BytesRead, CacheHitBytes and BlocksRead attribute device traffic to
	// the access-path leaf that performed it.
	BytesRead     int64 `json:"bytes_read,omitempty"`
	CacheHitBytes int64 `json:"cache_hit_bytes,omitempty"`
	BlocksRead    int64 `json:"blocks_read,omitempty"`
	// Faults, Stragglers, Retries and SkippedBlocks carry the fault-layer
	// accounting for the same leaf.
	Faults        int64 `json:"faults,omitempty"`
	Stragglers    int64 `json:"stragglers,omitempty"`
	Retries       int64 `json:"retries,omitempty"`
	SkippedBlocks int64 `json:"skipped_blocks,omitempty"`

	// BufferPeak is the buffer occupancy high-water mark in tuples (shuffle
	// buffers only); BufferCap its configured capacity.
	BufferPeak int `json:"buffer_peak,omitempty"`
	BufferCap  int `json:"buffer_cap,omitempty"`

	// Epoch, on the root, is the last completed epoch the snapshot covers.
	Epoch int `json:"epoch,omitempty"`
	// Resilience, on the root, is the plan's resilience footer line.
	Resilience string `json:"resilience,omitempty"`

	Children []*PlanStats `json:"children,omitempty"`
}

// Clone returns a deep copy of the tree.
func (p *PlanStats) Clone() *PlanStats {
	if p == nil {
		return nil
	}
	c := *p
	c.Children = nil
	for _, ch := range p.Children {
		c.Children = append(c.Children, ch.Clone())
	}
	return &c
}

// Text renders the tree, one line per node in EXPLAIN style. With analyze
// set each node carries an "(actual: ...)" annotation; stripping everything
// from " (actual:" to end of line recovers the static EXPLAIN text exactly.
func (p *PlanStats) Text(analyze bool) string {
	var b strings.Builder
	p.WriteText(&b, analyze)
	return b.String()
}

// WriteText writes the Text rendering to w.
func (p *PlanStats) WriteText(w io.Writer, analyze bool) {
	if p == nil {
		return
	}
	p.writeNode(w, 0, analyze)
	if p.Resilience != "" {
		fmt.Fprintf(w, "%s\n", p.Resilience)
	}
}

func (p *PlanStats) writeNode(w io.Writer, depth int, analyze bool) {
	prefix := ""
	if depth > 0 {
		prefix = strings.Repeat("   ", depth-1) + "└─ "
	}
	line := p.Name
	if p.Detail != "" {
		line += " (" + p.Detail + ")"
	}
	if analyze {
		line += " (actual: " + p.annotation() + ")"
	}
	fmt.Fprintf(w, "%s%s\n", prefix, line)
	for _, ch := range p.Children {
		ch.writeNode(w, depth+1, analyze)
	}
}

// annotation renders the node's runtime statistics as a single-line,
// paren-free field list.
func (p *PlanStats) annotation() string {
	parts := []string{
		fmt.Sprintf("rows=%d", p.Rows),
		fmt.Sprintf("loops=%d", p.Loops),
		fmt.Sprintf("self=%s", fmtSeconds(p.SelfSimSeconds)),
		fmt.Sprintf("total=%s", fmtSeconds(p.TotalSimSeconds)),
		fmt.Sprintf("wall_self=%s", fmtSeconds(p.SelfWallSeconds)),
		fmt.Sprintf("wall_total=%s", fmtSeconds(p.TotalWallSeconds)),
	}
	if p.BytesRead > 0 || p.BlocksRead > 0 {
		parts = append(parts,
			fmt.Sprintf("read=%s", fmtBytes(p.BytesRead)),
			fmt.Sprintf("cache_hit=%s", fmtBytes(p.CacheHitBytes)),
			fmt.Sprintf("blocks=%d", p.BlocksRead))
	}
	if p.Faults > 0 {
		parts = append(parts, fmt.Sprintf("faults=%d", p.Faults))
	}
	if p.Stragglers > 0 {
		parts = append(parts, fmt.Sprintf("stragglers=%d", p.Stragglers))
	}
	if p.Retries > 0 {
		parts = append(parts, fmt.Sprintf("retries=%d", p.Retries))
	}
	if p.SkippedBlocks > 0 {
		parts = append(parts, fmt.Sprintf("skipped_blocks=%d", p.SkippedBlocks))
	}
	if p.BufferCap > 0 {
		parts = append(parts, fmt.Sprintf("buffer_peak=%d/%d", p.BufferPeak, p.BufferCap))
	}
	return strings.Join(parts, " ")
}

// JSON renders the tree as indented JSON — the EXPLAIN (FORMAT JSON)
// payload.
func (p *PlanStats) JSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// SelfSimSum returns the sum of SelfSimSeconds over the whole tree. By the
// telescoping construction it equals the root's TotalSimSeconds; the
// invariant test holds the executor to it.
func (p *PlanStats) SelfSimSum() float64 {
	if p == nil {
		return 0
	}
	s := p.SelfSimSeconds
	for _, ch := range p.Children {
		s += ch.SelfSimSum()
	}
	return s
}

// fmtBytes renders a byte count compactly.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
