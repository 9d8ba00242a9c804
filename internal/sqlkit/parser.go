package sqlkit

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses one SQL statement.
func Parse(input string) (Statement, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: input}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	// Optional trailing semicolon.
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected trailing input %q", p.peek().text)
	}
	return st, nil
}

type parser struct {
	toks []tok
	i    int
	src  string
}

func (p *parser) peek() tok  { return p.toks[p.i] }
func (p *parser) next() tok  { t := p.toks[p.i]; p.i++; return t }
func (p *parser) save() int  { return p.i }
func (p *parser) load(m int) { p.i = m }

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sqlkit: parse error near offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

// kw reports whether the next token is the given keyword, consuming it if so.
func (p *parser) kw(word string) bool {
	if p.peek().kind == tokKeyword && p.peek().text == word {
		p.next()
		return true
	}
	return false
}

// sym reports whether the next token is the given symbol, consuming it if so.
func (p *parser) sym(s string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == s {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKw(word string) error {
	if !p.kw(word) {
		return p.errf("expected %s, got %q", word, p.peek().text)
	}
	return nil
}

func (p *parser) expectSym(s string) error {
	if !p.sym(s) {
		return p.errf("expected %q, got %q", s, p.peek().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind == tokIdent {
		p.next()
		return t.text, nil
	}
	return "", p.errf("expected identifier, got %q", t.text)
}

func (p *parser) statement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errf("expected statement keyword, got %q", t.text)
	}
	switch t.text {
	case "SELECT":
		return p.selectStmt()
	case "INSERT":
		return p.insertStmt()
	case "UPDATE":
		return p.updateStmt()
	case "DELETE":
		return p.deleteStmt()
	case "CREATE":
		return p.createStmt()
	case "DROP":
		return p.dropStmt()
	case "BEGIN":
		p.next()
		return &TxStmt{Kind: TxBegin}, nil
	case "COMMIT":
		p.next()
		return &TxStmt{Kind: TxCommit}, nil
	case "ROLLBACK":
		p.next()
		return &TxStmt{Kind: TxRollback}, nil
	default:
		return nil, p.errf("unsupported statement %q", t.text)
	}
}

func (p *parser) selectStmt() (*SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	s.Distinct = p.kw("DISTINCT")

	// Projection list.
	if p.sym("*") {
		// SELECT * — leave Exprs empty.
	} else {
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			se := SelectExpr{Expr: e}
			if p.kw("AS") {
				a, err := p.ident()
				if err != nil {
					return nil, err
				}
				se.Alias = a
			} else if p.peek().kind == tokIdent {
				se.Alias = p.next().text
			}
			s.Exprs = append(s.Exprs, se)
			if !p.sym(",") {
				break
			}
		}
	}

	if p.kw("FROM") {
		for {
			tr, err := p.tableRef()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, tr)
			if !p.sym(",") {
				break
			}
		}
		// JOIN clauses.
		for {
			kind := InnerJoin
			mark := p.save()
			if p.kw("LEFT") {
				kind = LeftJoin
			} else if p.kw("INNER") {
				kind = InnerJoin
			}
			if !p.kw("JOIN") {
				p.load(mark)
				break
			}
			tr, err := p.tableRef()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			on, err := p.expression()
			if err != nil {
				return nil, err
			}
			s.Joins = append(s.Joins, Join{Kind: kind, Table: tr, On: on})
		}
	}

	if p.kw("WHERE") {
		w, err := p.expression()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.kw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.sym(",") {
				break
			}
		}
	}
	if p.kw("HAVING") {
		h, err := p.expression()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.kw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			k := OrderKey{Expr: e}
			if p.kw("DESC") {
				k.Desc = true
			} else {
				p.kw("ASC")
			}
			s.OrderBy = append(s.OrderBy, k)
			if !p.sym(",") {
				break
			}
		}
	}
	if p.kw("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errf("expected LIMIT count, got %q", t.text)
		}
		p.next()
		n, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		s.Limit = n
	}

	// Set operations.
	for {
		var kind SetOpKind
		switch {
		case p.kw("UNION"):
			kind = Union
		case p.kw("INTERSECT"):
			kind = Intersect
		case p.kw("EXCEPT"):
			kind = Except
		default:
			return s, nil
		}
		all := p.kw("ALL")
		right, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		// Attach at the end of the current chain.
		cur := s
		for cur.Setop != nil {
			cur = cur.Setop.Right
		}
		cur.Setop = &SetOp{Kind: kind, All: all, Right: right}
	}
}

func (p *parser) tableRef() (TableRef, error) {
	var tr TableRef
	if p.sym("(") {
		sub, err := p.selectStmt()
		if err != nil {
			return tr, err
		}
		if err := p.expectSym(")"); err != nil {
			return tr, err
		}
		tr.Sub = sub
	} else {
		name, err := p.ident()
		if err != nil {
			return tr, err
		}
		tr.Name = name
	}
	if p.kw("AS") {
		a, err := p.ident()
		if err != nil {
			return tr, err
		}
		tr.Alias = a
	} else if p.peek().kind == tokIdent {
		tr.Alias = p.next().text
	}
	return tr, nil
}

func (p *parser) insertStmt() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: table}
	if p.sym("(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, c)
			if !p.sym(",") {
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
	}
	if p.peek().kind == tokKeyword && p.peek().text == "SELECT" {
		sub, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		st.Query = sub
		return st, nil
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.sym(",") {
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.sym(",") {
			break
		}
	}
	return st, nil
}

func (p *parser) updateStmt() (Statement, error) {
	p.next() // UPDATE
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, Assignment{Col: col, Expr: e})
		if !p.sym(",") {
			break
		}
	}
	if p.kw("WHERE") {
		w, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: table}
	if p.kw("WHERE") {
		w, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *parser) createStmt() (Statement, error) {
	p.next() // CREATE
	if p.kw("INDEX") {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return &CreateIndexStmt{Name: name, Table: table, Column: col}, nil
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Table: table}
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		t := p.peek()
		if t.kind != tokKeyword {
			return nil, p.errf("expected column type, got %q", t.text)
		}
		p.next()
		var ct ColType
		switch t.text {
		case "INT", "INTEGER":
			ct = TInt
		case "FLOAT", "REAL":
			ct = TFloat
		case "TEXT", "VARCHAR":
			ct = TText
			// Optional length, e.g. VARCHAR(255).
			if p.sym("(") {
				if p.peek().kind == tokNumber {
					p.next()
				}
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
			}
		case "BOOL", "BOOLEAN":
			ct = TBool
		default:
			return nil, p.errf("unsupported column type %q", t.text)
		}
		st.Cols = append(st.Cols, ColumnDef{Name: name, Type: ct})
		if !p.sym(",") {
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) dropStmt() (Statement, error) {
	p.next() // DROP
	if p.kw("INDEX") {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropIndexStmt{Name: name}, nil
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &DropTableStmt{Table: table}, nil
}

// --- Expression parsing, precedence climbing ---

func (p *parser) expression() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.kw("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.kw("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.kw("NOT") {
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol {
			var op BinOp
			ok := true
			switch t.text {
			case "=":
				op = OpEq
			case "<>", "!=":
				op = OpNe
			case "<":
				op = OpLt
			case "<=":
				op = OpLe
			case ">":
				op = OpGt
			case ">=":
				op = OpGe
			default:
				ok = false
			}
			if ok {
				p.next()
				r, err := p.addExpr()
				if err != nil {
					return nil, err
				}
				l = &Binary{Op: op, L: l, R: r}
				continue
			}
		}
		if t.kind == tokKeyword {
			switch t.text {
			case "LIKE":
				p.next()
				r, err := p.addExpr()
				if err != nil {
					return nil, err
				}
				l = &Binary{Op: OpLike, L: l, R: r}
				continue
			case "IS":
				p.next()
				not := p.kw("NOT")
				if err := p.expectKw("NULL"); err != nil {
					return nil, err
				}
				l = &IsNullExpr{X: l, Not: not}
				continue
			case "IN":
				p.next()
				in, err := p.inTail(l, false)
				if err != nil {
					return nil, err
				}
				l = in
				continue
			case "BETWEEN":
				p.next()
				bt, err := p.betweenTail(l, false)
				if err != nil {
					return nil, err
				}
				l = bt
				continue
			case "NOT":
				// x NOT IN / x NOT BETWEEN / x NOT LIKE
				mark := p.save()
				p.next()
				switch {
				case p.kw("IN"):
					in, err := p.inTail(l, true)
					if err != nil {
						return nil, err
					}
					l = in
					continue
				case p.kw("BETWEEN"):
					bt, err := p.betweenTail(l, true)
					if err != nil {
						return nil, err
					}
					l = bt
					continue
				case p.kw("LIKE"):
					r, err := p.addExpr()
					if err != nil {
						return nil, err
					}
					l = &Unary{Op: "NOT", X: &Binary{Op: OpLike, L: l, R: r}}
					continue
				default:
					p.load(mark)
				}
			}
		}
		return l, nil
	}
}

func (p *parser) inTail(x Expr, not bool) (Expr, error) {
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	if p.peek().kind == tokKeyword && p.peek().text == "SELECT" {
		sub, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return &InExpr{X: x, Sub: sub, Not: not}, nil
	}
	var list []Expr
	for {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if !p.sym(",") {
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return &InExpr{X: x, List: list, Not: not}, nil
}

func (p *parser) betweenTail(x Expr, not bool) (Expr, error) {
	lo, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("AND"); err != nil {
		return nil, err
	}
	hi, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	return &BetweenExpr{X: x, Lo: lo, Hi: hi, Not: not}, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.sym("+"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpAdd, L: l, R: r}
		case p.sym("-"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpSub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.sym("*"):
			r, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpMul, L: l, R: r}
		case p.sym("/"):
			r, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpDiv, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.sym("-") {
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return &Literal{Val: FloatVal(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &Literal{Val: IntVal(i)}, nil
	case tokString:
		p.next()
		return &Literal{Val: StringVal(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &Literal{Val: Null()}, nil
		case "TRUE":
			p.next()
			return &Literal{Val: BoolVal(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Val: BoolVal(false)}, nil
		case "EXISTS":
			p.next()
			if err := p.expectSym("("); err != nil {
				return nil, err
			}
			sub, err := p.selectStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return &ExistsExpr{Sub: sub}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.next()
			return p.funcTail(t.text)
		default:
			return nil, p.errf("unexpected keyword %q in expression", t.text)
		}
	case tokIdent:
		p.next()
		// Function call?
		if p.sym("(") {
			p.load(p.save() - 1) // un-consume "("
			return p.funcTail(strings.ToUpper(t.text))
		}
		// Qualified column?
		if p.sym(".") {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColRef{Table: t.text, Name: name}, nil
		}
		return &ColRef{Name: t.text}, nil
	case tokSymbol:
		if t.text == "(" {
			p.next()
			// Sub-query or parenthesized expression.
			if p.peek().kind == tokKeyword && p.peek().text == "SELECT" {
				sub, err := p.selectStmt()
				if err != nil {
					return nil, err
				}
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Sub: sub}, nil
			}
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}

// funcTail parses the argument list of a function whose name has been
// consumed.
func (p *parser) funcTail(name string) (Expr, error) {
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	f := &FuncCall{Name: name}
	if p.sym("*") {
		f.Star = true
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	if p.sym(")") {
		return f, nil
	}
	f.Distinct = p.kw("DISTINCT")
	for {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		f.Args = append(f.Args, e)
		if !p.sym(",") {
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return f, nil
}
