package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"corgipile/internal/decimal"
)

// Parse parses a single SQL statement (a trailing semicolon is optional).
func Parse(input string) (Statement, error) {
	p := &parser{lex: newLexer(input)}
	st, err := p.statement()
	if err == nil {
		p.accept(tokPunct, ";")
		if !p.at(tokEOF, "") {
			err = fmt.Errorf("sqlparse: trailing input at %s", p.peek())
		}
	}
	// A lexical error anywhere in the input outranks the parser's verdict,
	// even a grammatical error the parser met before reaching it.
	if lexErr := p.lex.drain(); lexErr != nil {
		return nil, lexErr
	}
	if err != nil {
		return nil, err
	}
	return st, nil
}

// ParseAll parses a semicolon-separated script into statements.
func ParseAll(input string) ([]Statement, error) {
	var stmts []Statement
	for _, part := range splitStatements(input) {
		if strings.TrimSpace(part) == "" {
			continue
		}
		st, err := Parse(part)
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, st)
	}
	return stmts, nil
}

// splitStatements splits on semicolons outside quotes.
func splitStatements(input string) []string {
	var parts []string
	var quote byte
	start := 0
	for i := 0; i < len(input); i++ {
		c := input[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == ';':
			parts = append(parts, input[start:i])
			start = i + 1
		}
	}
	parts = append(parts, input[start:])
	return parts
}

type parser struct {
	lex lexer
}

func (p *parser) peek() token { return p.lex.tok }

// next consumes and returns the current token; end of input is never
// consumed.
func (p *parser) next() token {
	t := p.lex.tok
	if t.kind != tokEOF {
		p.lex.advance()
	}
	return t
}

// at reports whether the current token matches kind and (case-insensitive)
// text; empty text matches any.
func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	if t.kind != kind {
		return false
	}
	return text == "" || strings.EqualFold(t.text, text)
}

// accept consumes the current token if it matches.
func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

// expect consumes a matching token or fails.
func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = map[tokenKind]string{tokWord: "identifier", tokNumber: "number", tokString: "string"}[kind]
	}
	return token{}, fmt.Errorf("sqlparse: expected %s, got %s", want, p.peek())
}

// keyword consumes a case-insensitive keyword word.
func (p *parser) keyword(word string) error {
	if p.accept(tokWord, word) {
		return nil
	}
	return fmt.Errorf("sqlparse: expected %s, got %s", strings.ToUpper(word), p.peek())
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.at(tokWord, "create"):
		return p.createTable()
	case p.at(tokWord, "select"):
		return p.selectStmt()
	case p.at(tokWord, "show"):
		return p.showStmt()
	case p.at(tokWord, "drop"):
		return p.dropStmt()
	case p.at(tokWord, "explain"):
		return p.explainStmt()
	case p.at(tokWord, "analyze"):
		return p.analyzeStmt()
	case p.at(tokWord, "save"):
		return p.saveStmt()
	case p.at(tokWord, "load"):
		return p.loadStmt()
	case p.at(tokWord, "insert"):
		return p.insertStmt()
	case p.at(tokWord, "checkpoint"):
		p.next()
		return &Checkpoint{}, nil
	case p.at(tokWord, "promote"):
		p.next()
		return &Promote{}, nil
	}
	return nil, fmt.Errorf("sqlparse: expected CREATE, SELECT, INSERT, SHOW, DROP, EXPLAIN, ANALYZE, SAVE, LOAD, CHECKPOINT or PROMOTE, got %s", p.peek())
}

func (p *parser) createTable() (Statement, error) {
	p.next() // CREATE
	if err := p.keyword("table"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokWord, "")
	if err != nil {
		return nil, err
	}
	st := &CreateTable{Name: name.text}
	switch {
	case p.accept(tokWord, "as"):
		if err := p.keyword("synthetic"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		st.Synthetic, err = p.paramList(true)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
	case p.accept(tokWord, "from"):
		f, err := p.expect(tokString, "")
		if err != nil {
			return nil, err
		}
		st.SourceFile = f.text
	default:
		return nil, fmt.Errorf("sqlparse: expected AS SYNTHETIC(...) or FROM 'file', got %s", p.peek())
	}
	if p.accept(tokWord, "with") {
		st.With, err = p.paramList(false)
		if err != nil {
			return nil, err
		}
	}
	if st.With == nil {
		st.With = Params{}
	}
	return st, nil
}

func (p *parser) selectStmt() (Statement, error) {
	p.next() // SELECT
	cols, err := p.selectColumns()
	if err != nil {
		return nil, err
	}
	if err := p.keyword("from"); err != nil {
		return nil, err
	}
	table, err := p.expect(tokWord, "")
	if err != nil {
		return nil, err
	}
	var conds []SelectCond
	if p.accept(tokWord, "where") {
		conds, err = p.selectConds()
		if err != nil {
			return nil, err
		}
	}
	switch {
	case p.accept(tokWord, "train"):
		if err := p.keyword("by"); err != nil {
			return nil, err
		}
		modelType, err := p.expect(tokWord, "")
		if err != nil {
			return nil, err
		}
		where, err := trainPredicate(cols, conds)
		if err != nil {
			return nil, err
		}
		st := &Train{Table: table.text, Where: where, ModelType: lowerIdent(modelType.text), Params: Params{}}
		if p.accept(tokWord, "model") {
			name, err := p.expect(tokWord, "")
			if err != nil {
				return nil, err
			}
			st.ModelName = name.text
		}
		if p.accept(tokWord, "with") {
			st.Params, err = p.paramList(false)
			if err != nil {
				return nil, err
			}
		}
		return st, nil
	case p.accept(tokWord, "predict"):
		if err := p.keyword("by"); err != nil {
			return nil, err
		}
		model, err := p.expect(tokWord, "")
		if err != nil {
			return nil, err
		}
		where, err := trainPredicate(cols, conds)
		if err != nil {
			return nil, err
		}
		st := &Predict{Table: table.text, Where: where, Model: model.text}
		if p.accept(tokWord, "limit") {
			st.Limit, err = p.limit()
			if err != nil {
				return nil, err
			}
		}
		return st, nil
	}
	// No TRAIN/PREDICT suffix: a general SELECT over a base or system
	// table, with optional ORDER BY and LIMIT.
	st := &Select{Columns: cols, Table: table.text, Where: conds}
	if p.accept(tokWord, "order") {
		if err := p.keyword("by"); err != nil {
			return nil, err
		}
		col, err := p.expect(tokWord, "")
		if err != nil {
			return nil, err
		}
		st.OrderBy = lowerIdent(col.text)
		if p.accept(tokWord, "desc") {
			st.Desc = true
		} else {
			p.accept(tokWord, "asc")
		}
	}
	if p.accept(tokWord, "limit") {
		if st.Limit, err = p.limit(); err != nil {
			return nil, err
		}
	}
	if !p.at(tokEOF, "") && !p.at(tokPunct, ";") {
		return nil, fmt.Errorf("sqlparse: expected TRAIN BY, PREDICT BY, WHERE, ORDER BY, LIMIT or end of statement, got %s", p.peek())
	}
	return st, nil
}

// selectColumns parses the projection list: * or ident[, ident...].
func (p *parser) selectColumns() ([]string, error) {
	if p.accept(tokPunct, "*") {
		return nil, nil
	}
	var cols []string
	for {
		c, err := p.expect(tokWord, "")
		if err != nil {
			return nil, err
		}
		cols = append(cols, lowerIdent(c.text))
		if !p.accept(tokPunct, ",") {
			return cols, nil
		}
	}
}

// selectConds parses "col op value [AND col op value ...]" with string
// or numeric values.
func (p *parser) selectConds() ([]SelectCond, error) {
	var conds []SelectCond
	for {
		col, err := p.expect(tokWord, "")
		if err != nil {
			return nil, err
		}
		op, err := p.comparison()
		if err != nil {
			return nil, err
		}
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		conds = append(conds, SelectCond{Column: lowerIdent(col.text), Op: op, Value: v})
		if !p.accept(tokWord, "and") {
			return conds, nil
		}
	}
}

// limit parses the LIMIT argument (the keyword is already consumed).
func (p *parser) limit() (int, error) {
	n, err := p.expect(tokNumber, "")
	if err != nil {
		return 0, err
	}
	limit, err := strconv.Atoi(n.text)
	if err != nil || limit < 0 {
		return 0, fmt.Errorf("sqlparse: bad LIMIT %q", n.text)
	}
	return limit, nil
}

// trainPredicate narrows a general WHERE clause to the single numeric
// label/id predicate the TRAIN BY / PREDICT BY scan path supports, and
// rejects projections (the training dialect is SELECT * only).
func trainPredicate(cols []string, conds []SelectCond) (*Predicate, error) {
	if len(cols) > 0 {
		return nil, fmt.Errorf("sqlparse: TRAIN/PREDICT requires SELECT *, got a column list")
	}
	if len(conds) == 0 {
		return nil, nil
	}
	if len(conds) > 1 {
		return nil, fmt.Errorf("sqlparse: TRAIN/PREDICT WHERE supports a single condition")
	}
	c := conds[0]
	if c.Column != "label" && c.Column != "id" {
		return nil, fmt.Errorf("sqlparse: WHERE supports columns label and id, got %q", c.Column)
	}
	if !c.Value.IsNum {
		return nil, fmt.Errorf("sqlparse: WHERE needs a numeric value, got %q", c.Value.Raw)
	}
	return &Predicate{Column: c.Column, Op: c.Op, Value: c.Value.Num}, nil
}

func (p *parser) showStmt() (Statement, error) {
	p.next() // SHOW
	switch {
	case p.accept(tokWord, "tables"):
		return &Show{What: "tables"}, nil
	case p.accept(tokWord, "models"):
		return &Show{What: "models"}, nil
	}
	return nil, fmt.Errorf("sqlparse: expected TABLES or MODELS, got %s", p.peek())
}

func (p *parser) dropStmt() (Statement, error) {
	p.next() // DROP
	var what string
	switch {
	case p.accept(tokWord, "table"):
		what = "table"
	case p.accept(tokWord, "model"):
		what = "model"
	default:
		return nil, fmt.Errorf("sqlparse: expected TABLE or MODEL, got %s", p.peek())
	}
	name, err := p.expect(tokWord, "")
	if err != nil {
		return nil, err
	}
	return &Drop{What: what, Name: name.text}, nil
}

// comparison parses one of = != < <= > >=.
func (p *parser) comparison() (string, error) {
	switch {
	case p.accept(tokPunct, "="):
		return "=", nil
	case p.accept(tokPunct, "!"):
		if _, err := p.expect(tokPunct, "="); err != nil {
			return "", err
		}
		return "!=", nil
	case p.accept(tokPunct, "<"):
		if p.accept(tokPunct, "=") {
			return "<=", nil
		}
		return "<", nil
	case p.accept(tokPunct, ">"):
		if p.accept(tokPunct, "=") {
			return ">=", nil
		}
		return ">", nil
	}
	return "", fmt.Errorf("sqlparse: expected a comparison operator, got %s", p.peek())
}

func (p *parser) explainStmt() (Statement, error) {
	p.next() // EXPLAIN
	ex := &Explain{}
	ex.Analyze = p.accept(tokWord, "analyze")
	if p.accept(tokWord, "format") {
		f, err := p.expect(tokWord, "")
		if err != nil {
			return nil, err
		}
		switch strings.ToLower(f.text) {
		case "json", "text":
			ex.Format = strings.ToLower(f.text)
		default:
			return nil, fmt.Errorf("sqlparse: EXPLAIN FORMAT wants JSON or TEXT, got %q", f.text)
		}
	}
	st, err := p.selectStmtAfterKeyword()
	if err != nil {
		return nil, err
	}
	tr, ok := st.(*Train)
	if !ok {
		return nil, fmt.Errorf("sqlparse: EXPLAIN supports only TRAIN BY queries")
	}
	ex.Train = tr
	return ex, nil
}

// selectStmtAfterKeyword parses a SELECT statement including its keyword.
func (p *parser) selectStmtAfterKeyword() (Statement, error) {
	if !p.at(tokWord, "select") {
		return nil, fmt.Errorf("sqlparse: expected SELECT, got %s", p.peek())
	}
	return p.selectStmt()
}

func (p *parser) saveStmt() (Statement, error) {
	p.next() // SAVE
	if err := p.keyword("model"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokWord, "")
	if err != nil {
		return nil, err
	}
	if err := p.keyword("to"); err != nil {
		return nil, err
	}
	path, err := p.expect(tokString, "")
	if err != nil {
		return nil, err
	}
	return &SaveModel{Name: name.text, Path: path.text}, nil
}

func (p *parser) loadStmt() (Statement, error) {
	p.next() // LOAD
	intoTable := false
	switch {
	case p.accept(tokWord, "model"):
	case p.accept(tokWord, "into"):
		intoTable = true
	default:
		return nil, fmt.Errorf("sqlparse: expected MODEL or INTO after LOAD, got %s", p.peek())
	}
	name, err := p.expect(tokWord, "")
	if err != nil {
		return nil, err
	}
	if err := p.keyword("from"); err != nil {
		return nil, err
	}
	path, err := p.expect(tokString, "")
	if err != nil {
		return nil, err
	}
	if intoTable {
		return &LoadTable{Table: name.text, Path: path.text}, nil
	}
	return &LoadModel{Name: name.text, Path: path.text}, nil
}

// insertStmt parses INSERT INTO table VALUES (label, f1, ...), (...).
func (p *parser) insertStmt() (Statement, error) {
	p.next() // INSERT
	if err := p.keyword("into"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokWord, "")
	if err != nil {
		return nil, err
	}
	if err := p.keyword("values"); err != nil {
		return nil, err
	}
	st := &Insert{Table: name.text}
	for {
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		// Size the row before reading it: the current token is its label,
		// and one feature follows each comma before its ')'.
		row := InsertRow{Features: make([]float64, 0, p.lex.commasBefore(')'))}
		first := true
		for {
			v, err := p.value()
			if err != nil {
				return nil, err
			}
			if !v.IsNum {
				return nil, fmt.Errorf("sqlparse: INSERT values must be numeric, got %q", v.Raw)
			}
			if first {
				row.Label = v.Num
				first = false
			} else {
				row.Features = append(row.Features, v.Num)
			}
			if !p.accept(tokPunct, ",") {
				break
			}
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		if len(row.Features) == 0 {
			return nil, fmt.Errorf("sqlparse: INSERT row needs a label and at least one feature")
		}
		st.Rows = append(st.Rows, row)
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	return st, nil
}

func (p *parser) analyzeStmt() (Statement, error) {
	p.next() // ANALYZE
	if err := p.keyword("table"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokWord, "")
	if err != nil {
		return nil, err
	}
	st := &Analyze{Table: name.text, Params: Params{}}
	if p.accept(tokWord, "with") {
		st.Params, err = p.paramList(false)
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// paramList parses ident = value [, ident = value]*. With insideParens set
// it stops at ')'; otherwise it stops at end of statement keywords.
func (p *parser) paramList(insideParens bool) (Params, error) {
	params := Params{}
	for {
		key, err := p.expect(tokWord, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, "="); err != nil {
			return nil, err
		}
		val, err := p.value()
		if err != nil {
			return nil, err
		}
		params[lowerIdent(key.text)] = val
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	_ = insideParens
	return params, nil
}

// value parses a parameter value: string, number, size literal, or bare
// word. A number in decimal.Parse's common form is read without strconv.
func (p *parser) value() (Value, error) {
	t := p.peek()
	switch t.kind {
	case tokString:
		p.next()
		return Value{Raw: t.text}, nil
	case tokNumber:
		p.next()
		n, ok := decimal.Parse(t.text)
		if !ok {
			var err error
			if n, err = strconv.ParseFloat(t.text, 64); err != nil {
				return Value{}, fmt.Errorf("sqlparse: bad number %q", t.text)
			}
		}
		return Value{Raw: t.text, Num: n, IsNum: true}, nil
	case tokUnitNum:
		p.next()
		n, err := ParseSize(t.text)
		if err != nil {
			return Value{}, err
		}
		return Value{Raw: t.text, Num: float64(n), IsNum: true}, nil
	case tokWord:
		p.next()
		return Value{Raw: t.text}, nil
	}
	return Value{}, fmt.Errorf("sqlparse: expected a value, got %s", t)
}
