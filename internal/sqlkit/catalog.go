package sqlkit

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
}

// Table is an in-memory relation. gen is a write-epoch stamp (unique
// across the owning DB) used to invalidate lazily built secondary indexes.
type Table struct {
	Name string
	Cols []Column
	Rows [][]Value
	gen  int64
}

// colIndex returns the position of the named column (case-insensitive).
func (t *Table) colIndex(name string) (int, bool) {
	for i, c := range t.Cols {
		if strings.EqualFold(c.Name, name) {
			return i, true
		}
	}
	return 0, false
}

// clone deep-copies the table.
func (t *Table) clone() *Table {
	cols := make([]Column, len(t.Cols))
	copy(cols, t.Cols)
	rows := make([][]Value, len(t.Rows))
	for i, r := range t.Rows {
		rr := make([]Value, len(r))
		copy(rr, r)
		rows[i] = rr
	}
	return &Table{Name: t.Name, Cols: cols, Rows: rows, gen: t.gen}
}

// DB is an in-memory database with single-writer transactions.
// DB is safe for concurrent use; Exec serializes statements.
type DB struct {
	mu       sync.Mutex
	tables   map[string]*Table
	inTx     bool
	snapshot map[string]*Table
	indexes  map[string]*indexDef
	genSeq   int64
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table), indexes: make(map[string]*indexDef)}
}

// nextGen issues a fresh write-epoch stamp.
func (db *DB) nextGen() int64 {
	db.genSeq++
	return db.genSeq
}

// CreateTable registers a table definition directly (bypassing SQL), useful
// for programmatic schema setup by the workload generators.
func (db *DB) CreateTable(name string, cols []Column) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; ok {
		return fmt.Errorf("sqlkit: table %q already exists", name)
	}
	db.tables[key] = &Table{Name: name, Cols: append([]Column(nil), cols...), gen: db.nextGen()}
	return nil
}

// InsertRow appends a row to a table, validating arity.
func (db *DB) InsertRow(name string, row []Value) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return fmt.Errorf("sqlkit: unknown table %q", name)
	}
	if len(row) != len(t.Cols) {
		return fmt.Errorf("sqlkit: table %q has %d columns, row has %d", name, len(t.Cols), len(row))
	}
	t.Rows = append(t.Rows, append([]Value(nil), row...))
	t.gen = db.nextGen()
	return nil
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.tables[strings.ToLower(name)]
}

// TableNames lists the tables in sorted order.
func (db *DB) TableNames() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// SchemaText renders the schema as CREATE TABLE statements — the "database
// information" block fed into LLM prompts (paper Figures 2 and 3).
func (db *DB) SchemaText() string {
	var b strings.Builder
	for _, name := range db.TableNames() {
		t := db.Table(name)
		cols := make([]string, len(t.Cols))
		for i, c := range t.Cols {
			cols[i] = c.Name + " " + c.Type.String()
		}
		fmt.Fprintf(&b, "CREATE TABLE %s (%s);\n", t.Name, strings.Join(cols, ", "))
	}
	return b.String()
}

// Exec parses and executes one statement.
func (db *DB) Exec(sql string) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(st)
}

// ExecStmt executes a parsed statement.
func (db *DB) ExecStmt(st Statement) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	switch s := st.(type) {
	case *SelectStmt:
		ex := &executor{db: db}
		return ex.selectResult(s, nil)
	case *InsertStmt:
		return db.execInsert(s)
	case *UpdateStmt:
		return db.execUpdate(s)
	case *DeleteStmt:
		return db.execDelete(s)
	case *CreateTableStmt:
		key := strings.ToLower(s.Table)
		if _, ok := db.tables[key]; ok {
			return nil, fmt.Errorf("sqlkit: table %q already exists", s.Table)
		}
		cols := make([]Column, len(s.Cols))
		for i, c := range s.Cols {
			cols[i] = Column{Name: c.Name, Type: c.Type}
		}
		db.tables[key] = &Table{Name: s.Table, Cols: cols, gen: db.nextGen()}
		return &Result{}, nil
	case *DropTableStmt:
		key := strings.ToLower(s.Table)
		if _, ok := db.tables[key]; !ok {
			return nil, fmt.Errorf("sqlkit: unknown table %q", s.Table)
		}
		delete(db.tables, key)
		for name, def := range db.indexes {
			if def.table == key {
				delete(db.indexes, name)
			}
		}
		return &Result{}, nil
	case *CreateIndexStmt:
		if err := db.registerIndex(s.Name, s.Table, s.Column); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *DropIndexStmt:
		key := strings.ToLower(s.Name)
		if _, ok := db.indexes[key]; !ok {
			return nil, fmt.Errorf("sqlkit: unknown index %q", s.Name)
		}
		delete(db.indexes, key)
		return &Result{}, nil
	case *TxStmt:
		return db.execTx(s)
	default:
		return nil, fmt.Errorf("sqlkit: unsupported statement %T", st)
	}
}

func (db *DB) execTx(s *TxStmt) (*Result, error) {
	switch s.Kind {
	case TxBegin:
		if db.inTx {
			return nil, fmt.Errorf("sqlkit: nested BEGIN")
		}
		db.snapshot = make(map[string]*Table, len(db.tables))
		for k, t := range db.tables {
			db.snapshot[k] = t.clone()
		}
		db.inTx = true
		return &Result{}, nil
	case TxCommit:
		if !db.inTx {
			return nil, fmt.Errorf("sqlkit: COMMIT outside transaction")
		}
		db.snapshot = nil
		db.inTx = false
		return &Result{}, nil
	case TxRollback:
		if !db.inTx {
			return nil, fmt.Errorf("sqlkit: ROLLBACK outside transaction")
		}
		db.tables = db.snapshot
		db.snapshot = nil
		db.inTx = false
		return &Result{}, nil
	default:
		return nil, fmt.Errorf("sqlkit: unknown tx statement")
	}
}

func (db *DB) execInsert(s *InsertStmt) (*Result, error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return nil, fmt.Errorf("sqlkit: unknown table %q", s.Table)
	}
	cols := s.Cols
	if len(cols) == 0 {
		cols = make([]string, len(t.Cols))
		for i, c := range t.Cols {
			cols[i] = c.Name
		}
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		j, ok := t.colIndex(c)
		if !ok {
			return nil, fmt.Errorf("sqlkit: table %q has no column %q", s.Table, c)
		}
		idx[i] = j
	}
	ex := &executor{db: db}
	if s.Query != nil {
		res, err := ex.selectResult(s.Query, nil)
		if err != nil {
			return nil, err
		}
		n := 0
		for _, src := range res.Rows {
			if len(src) != len(cols) {
				return nil, fmt.Errorf("sqlkit: INSERT ... SELECT arity %d, want %d", len(src), len(cols))
			}
			row := make([]Value, len(t.Cols))
			for i := range src {
				row[idx[i]] = src[i]
			}
			t.Rows = append(t.Rows, row)
			n++
		}
		t.gen = db.nextGen()
		return &Result{Affected: n}, nil
	}
	n := 0
	for _, rowExprs := range s.Rows {
		if len(rowExprs) != len(cols) {
			return nil, fmt.Errorf("sqlkit: INSERT row has %d values, want %d", len(rowExprs), len(cols))
		}
		row := make([]Value, len(t.Cols))
		for i, e := range rowExprs {
			v, err := ex.eval(e, nil)
			if err != nil {
				return nil, err
			}
			row[idx[i]] = v
		}
		t.Rows = append(t.Rows, row)
		n++
	}
	t.gen = db.nextGen()
	return &Result{Affected: n}, nil
}

func (db *DB) execUpdate(s *UpdateStmt) (*Result, error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return nil, fmt.Errorf("sqlkit: unknown table %q", s.Table)
	}
	ex := &executor{db: db}
	n := 0
	for ri, row := range t.Rows {
		env := tableEnv(t, "", row)
		if s.Where != nil {
			cond, err := ex.eval(s.Where, env)
			if err != nil {
				return nil, err
			}
			if !cond.IsTrue() {
				continue
			}
		}
		for _, a := range s.Set {
			ci, ok := t.colIndex(a.Col)
			if !ok {
				return nil, fmt.Errorf("sqlkit: table %q has no column %q", s.Table, a.Col)
			}
			v, err := ex.eval(a.Expr, env)
			if err != nil {
				return nil, err
			}
			t.Rows[ri][ci] = v
		}
		n++
	}
	if n > 0 {
		t.gen = db.nextGen()
	}
	return &Result{Affected: n}, nil
}

func (db *DB) execDelete(s *DeleteStmt) (*Result, error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return nil, fmt.Errorf("sqlkit: unknown table %q", s.Table)
	}
	ex := &executor{db: db}
	kept := t.Rows[:0]
	n := 0
	for _, row := range t.Rows {
		del := true
		if s.Where != nil {
			cond, err := ex.eval(s.Where, tableEnv(t, "", row))
			if err != nil {
				return nil, err
			}
			del = cond.IsTrue()
		}
		if del {
			n++
		} else {
			kept = append(kept, row)
		}
	}
	t.Rows = kept
	if n > 0 {
		t.gen = db.nextGen()
	}
	return &Result{Affected: n}, nil
}

// tableEnv builds an evaluation environment over one table row.
func tableEnv(t *Table, alias string, row []Value) *env {
	name := t.Name
	if alias != "" {
		name = alias
	}
	cols := make([]qcol, len(t.Cols))
	for i, c := range t.Cols {
		cols[i] = qcol{table: strings.ToLower(name), name: strings.ToLower(c.Name)}
	}
	return &env{cols: cols, row: row}
}
