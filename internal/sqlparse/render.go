package sqlparse

import (
	"fmt"
	"sort"
	"strings"
)

// Render converts a parsed statement back to SQL text. Parse(Render(st))
// yields an equivalent statement, which the round-trip property test
// verifies; it is used by tools that log or persist statements.
func Render(st Statement) string {
	switch st := st.(type) {
	case *CreateTable:
		var b strings.Builder
		fmt.Fprintf(&b, "CREATE TABLE %s", st.Name)
		if st.Synthetic == nil {
			fmt.Fprintf(&b, " FROM %s", quote(st.SourceFile))
		} else {
			fmt.Fprintf(&b, " AS SYNTHETIC(%s)", renderParams(st.Synthetic))
		}
		if len(st.With) > 0 {
			fmt.Fprintf(&b, " WITH %s", renderParams(st.With))
		}
		return b.String()
	case *Train:
		var b strings.Builder
		fmt.Fprintf(&b, "SELECT * FROM %s%s TRAIN BY %s", st.Table, renderWhere(st.Where), st.ModelType)
		if st.ModelName != "" {
			fmt.Fprintf(&b, " MODEL %s", st.ModelName)
		}
		if len(st.Params) > 0 {
			fmt.Fprintf(&b, " WITH %s", renderParams(st.Params))
		}
		return b.String()
	case *Predict:
		var b strings.Builder
		fmt.Fprintf(&b, "SELECT * FROM %s%s PREDICT BY %s", st.Table, renderWhere(st.Where), st.Model)
		if st.Limit > 0 {
			fmt.Fprintf(&b, " LIMIT %d", st.Limit)
		}
		return b.String()
	case *Select:
		var b strings.Builder
		cols := "*"
		if len(st.Columns) > 0 {
			cols = strings.Join(st.Columns, ", ")
		}
		fmt.Fprintf(&b, "SELECT %s FROM %s", cols, st.Table)
		for i, c := range st.Where {
			if i == 0 {
				b.WriteString(" WHERE ")
			} else {
				b.WriteString(" AND ")
			}
			if c.Value.IsNum {
				fmt.Fprintf(&b, "%s %s %s", c.Column, c.Op, c.Value.Raw)
			} else {
				fmt.Fprintf(&b, "%s %s %s", c.Column, c.Op, quote(c.Value.Raw))
			}
		}
		if st.OrderBy != "" {
			fmt.Fprintf(&b, " ORDER BY %s", st.OrderBy)
			if st.Desc {
				b.WriteString(" DESC")
			}
		}
		if st.Limit > 0 {
			fmt.Fprintf(&b, " LIMIT %d", st.Limit)
		}
		return b.String()
	case *Show:
		return "SHOW " + strings.ToUpper(st.What)
	case *Drop:
		return fmt.Sprintf("DROP %s %s", strings.ToUpper(st.What), st.Name)
	case *Explain:
		out := "EXPLAIN "
		if st.Analyze {
			out += "ANALYZE "
		}
		if st.Format != "" {
			out += "FORMAT " + strings.ToUpper(st.Format) + " "
		}
		return out + Render(st.Train)
	case *Analyze:
		out := "ANALYZE TABLE " + st.Table
		if len(st.Params) > 0 {
			out += " WITH " + renderParams(st.Params)
		}
		return out
	case *SaveModel:
		return fmt.Sprintf("SAVE MODEL %s TO %s", st.Name, quote(st.Path))
	case *LoadModel:
		return fmt.Sprintf("LOAD MODEL %s FROM %s", st.Name, quote(st.Path))
	case *Insert:
		var b strings.Builder
		fmt.Fprintf(&b, "INSERT INTO %s VALUES ", st.Table)
		for i, row := range st.Rows {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%g", row.Label)
			for _, f := range row.Features {
				fmt.Fprintf(&b, ", %g", f)
			}
			b.WriteString(")")
		}
		return b.String()
	case *LoadTable:
		return fmt.Sprintf("LOAD INTO %s FROM %s", st.Table, quote(st.Path))
	case *Checkpoint:
		return "CHECKPOINT"
	case *Promote:
		return "PROMOTE"
	}
	return ""
}

func renderWhere(p *Predicate) string {
	if p == nil {
		return ""
	}
	return fmt.Sprintf(" WHERE %s %s %g", p.Column, p.Op, p.Value)
}

// renderParams emits key=value pairs in sorted key order for determinism.
func renderParams(p Params) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		v := p[k]
		if v.IsNum {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v.Num))
		} else {
			parts = append(parts, fmt.Sprintf("%s=%s", k, quote(v.Raw)))
		}
	}
	return strings.Join(parts, ", ")
}

// quote renders a string literal. It uses ' unless the text holds one, and
// then ": the lexer never yields a string holding both.
func quote(s string) string {
	if strings.IndexByte(s, '\'') >= 0 {
		return `"` + s + `"`
	}
	return "'" + s + "'"
}
