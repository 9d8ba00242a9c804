package sqlkit

import (
	"fmt"
	"strings"
)

// Secondary indexes: CREATE INDEX name ON table (column) builds a hash
// index used by single-table equality predicates. Index payloads are built
// lazily and invalidated by any write to the table (a generation counter),
// so DML stays simple and reads pay the build cost once per write epoch —
// the right trade for the read-heavy analytical workloads this engine
// serves.

// CreateIndexStmt is CREATE INDEX name ON table (column).
type CreateIndexStmt struct {
	Name   string
	Table  string
	Column string
}

func (*CreateIndexStmt) stmt() {}

// SQL implements Statement.
func (s *CreateIndexStmt) SQL() string {
	return "CREATE INDEX " + s.Name + " ON " + s.Table + " (" + s.Column + ")"
}

// DropIndexStmt is DROP INDEX name.
type DropIndexStmt struct{ Name string }

func (*DropIndexStmt) stmt() {}

// SQL implements Statement.
func (s *DropIndexStmt) SQL() string { return "DROP INDEX " + s.Name }

// indexDef is one registered index.
type indexDef struct {
	name   string
	table  string // lower-cased
	column string // lower-cased
	// built payload, valid while gen matches the table's generation.
	payload map[string][]int
	gen     int64
}

// registerIndex validates and records an index definition.
func (db *DB) registerIndex(name, table, column string) error {
	if _, ok := db.indexes[strings.ToLower(name)]; ok {
		return fmt.Errorf("sqlkit: index %q already exists", name)
	}
	t, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("sqlkit: unknown table %q", table)
	}
	if _, ok := t.colIndex(column); !ok {
		return fmt.Errorf("sqlkit: table %q has no column %q", table, column)
	}
	db.indexes[strings.ToLower(name)] = &indexDef{
		name:   name,
		table:  strings.ToLower(table),
		column: strings.ToLower(column),
		gen:    -1,
	}
	return nil
}

// lookupIndexLocked finds a current index over (table, column), building
// its payload if stale. Returns nil when no index exists.
func (db *DB) lookupIndexLocked(table, column string) *indexDef {
	table = strings.ToLower(table)
	column = strings.ToLower(column)
	for _, def := range db.indexes {
		if def.table != table || def.column != column {
			continue
		}
		t := db.tables[table]
		if t == nil {
			return nil
		}
		if def.gen != t.gen {
			ci, _ := t.colIndex(column)
			def.payload = make(map[string][]int, len(t.Rows))
			for ri, row := range t.Rows {
				k := row[ci].key()
				def.payload[k] = append(def.payload[k], ri)
			}
			def.gen = t.gen
		}
		return def
	}
	return nil
}

// indexableEq inspects a WHERE tree for a top-level conjunct of the form
// column = literal (or literal = column) and returns the column and value.
func indexableEq(e Expr) (col string, val Value, ok bool) {
	switch x := e.(type) {
	case *Binary:
		switch x.Op {
		case OpAnd:
			if c, v, ok := indexableEq(x.L); ok {
				return c, v, true
			}
			return indexableEq(x.R)
		case OpEq:
			if cr, okc := x.L.(*ColRef); okc {
				if lit, okl := x.R.(*Literal); okl && cr.Table == "" {
					return cr.Name, lit.Val, true
				}
			}
			if cr, okc := x.R.(*ColRef); okc {
				if lit, okl := x.L.(*Literal); okl && cr.Table == "" {
					return cr.Name, lit.Val, true
				}
			}
		}
	}
	return "", Value{}, false
}

// indexScanEligible reports whether the select can use an index: a single
// base table, no joins, and an indexable equality in WHERE. It returns the
// matching index (payload refreshed) and the probe value.
func (db *DB) indexScanEligible(s *SelectStmt) (*indexDef, Value, bool) {
	if len(s.From) != 1 || s.From[0].Sub != nil || len(s.Joins) != 0 || s.Where == nil {
		return nil, Value{}, false
	}
	col, val, ok := indexableEq(s.Where)
	if !ok || val.IsNull() {
		return nil, Value{}, false
	}
	def := db.lookupIndexLocked(s.From[0].Name, col)
	if def == nil {
		return nil, Value{}, false
	}
	return def, val, true
}
