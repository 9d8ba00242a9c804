package sqlkit

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return st
}

func TestParseSimpleSelect(t *testing.T) {
	st := mustParse(t, "SELECT name FROM stadium WHERE capacity > 50000")
	s, ok := st.(*SelectStmt)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if len(s.Exprs) != 1 || len(s.From) != 1 || s.Where == nil {
		t.Errorf("structure wrong: %+v", s)
	}
	if s.From[0].Name != "stadium" {
		t.Errorf("table = %q", s.From[0].Name)
	}
}

func TestParseSelectStar(t *testing.T) {
	s := mustParse(t, "SELECT * FROM concert").(*SelectStmt)
	if len(s.Exprs) != 0 {
		t.Errorf("star select should have empty Exprs, got %d", len(s.Exprs))
	}
}

func TestParseJoin(t *testing.T) {
	s := mustParse(t, "SELECT s.name FROM stadium AS s JOIN concert AS c ON s.stadium_id = c.stadium_id WHERE c.year = 2014").(*SelectStmt)
	if len(s.Joins) != 1 {
		t.Fatalf("joins = %d", len(s.Joins))
	}
	if s.Joins[0].Kind != InnerJoin {
		t.Errorf("join kind = %v", s.Joins[0].Kind)
	}
	if s.From[0].Alias != "s" || s.Joins[0].Table.Alias != "c" {
		t.Errorf("aliases wrong: %+v", s)
	}
}

func TestParseLeftJoin(t *testing.T) {
	s := mustParse(t, "SELECT * FROM a LEFT JOIN b ON a.x = b.y").(*SelectStmt)
	if s.Joins[0].Kind != LeftJoin {
		t.Errorf("kind = %v, want LeftJoin", s.Joins[0].Kind)
	}
}

func TestParseGroupHavingOrderLimit(t *testing.T) {
	s := mustParse(t, "SELECT city, COUNT(*) AS n FROM stadium GROUP BY city HAVING COUNT(*) > 1 ORDER BY n DESC, city ASC LIMIT 5").(*SelectStmt)
	if len(s.GroupBy) != 1 || s.Having == nil || len(s.OrderBy) != 2 || s.Limit != 5 {
		t.Errorf("structure wrong: %+v", s)
	}
	if !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Errorf("order directions wrong")
	}
}

func TestParseSubqueryInWhere(t *testing.T) {
	s := mustParse(t, "SELECT name FROM stadium WHERE stadium_id IN (SELECT stadium_id FROM concert WHERE year = 2014)").(*SelectStmt)
	in, ok := s.Where.(*InExpr)
	if !ok || in.Sub == nil {
		t.Fatalf("where = %T", s.Where)
	}
}

func TestParseNotIn(t *testing.T) {
	s := mustParse(t, "SELECT name FROM t WHERE x NOT IN (1, 2, 3)").(*SelectStmt)
	in := s.Where.(*InExpr)
	if !in.Not || len(in.List) != 3 {
		t.Errorf("NOT IN parse wrong: %+v", in)
	}
}

func TestParseExists(t *testing.T) {
	s := mustParse(t, "SELECT name FROM stadium AS s WHERE EXISTS (SELECT 1 FROM concert AS c WHERE c.stadium_id = s.stadium_id)").(*SelectStmt)
	if _, ok := s.Where.(*ExistsExpr); !ok {
		t.Fatalf("where = %T", s.Where)
	}
}

func TestParseScalarSubquery(t *testing.T) {
	s := mustParse(t, "SELECT name FROM stadium WHERE capacity > (SELECT AVG(capacity) FROM stadium)").(*SelectStmt)
	b := s.Where.(*Binary)
	if _, ok := b.R.(*SubqueryExpr); !ok {
		t.Fatalf("rhs = %T", b.R)
	}
}

func TestParseDerivedTable(t *testing.T) {
	s := mustParse(t, "SELECT t.n FROM (SELECT COUNT(*) AS n FROM concert) AS t").(*SelectStmt)
	if s.From[0].Sub == nil || s.From[0].Alias != "t" {
		t.Errorf("derived table wrong: %+v", s.From[0])
	}
}

func TestParseSetOps(t *testing.T) {
	s := mustParse(t, "SELECT name FROM a UNION SELECT name FROM b INTERSECT SELECT name FROM c").(*SelectStmt)
	if s.Setop == nil || s.Setop.Kind != Union {
		t.Fatal("first setop missing")
	}
	if s.Setop.Right.Setop == nil || s.Setop.Right.Setop.Kind != Intersect {
		t.Fatal("chained setop missing")
	}
}

func TestParseBetweenLikeIsNull(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE a BETWEEN 1 AND 10 AND b LIKE 'abc%' AND c IS NOT NULL").(*SelectStmt)
	if s.Where == nil {
		t.Fatal("no where")
	}
	sql := s.Where.SQL()
	for _, want := range []string{"BETWEEN", "LIKE", "IS NOT NULL"} {
		if !strings.Contains(sql, want) {
			t.Errorf("rendered where %q missing %s", sql, want)
		}
	}
}

func TestParseInsert(t *testing.T) {
	st := mustParse(t, "INSERT INTO stadium (stadium_id, name) VALUES (1, 'Anfield'), (2, 'Camp Nou')").(*InsertStmt)
	if st.Table != "stadium" || len(st.Cols) != 2 || len(st.Rows) != 2 {
		t.Errorf("insert wrong: %+v", st)
	}
}

func TestParseUpdateDelete(t *testing.T) {
	up := mustParse(t, "UPDATE accounts SET balance = balance - 1000 WHERE owner = 'Alice'").(*UpdateStmt)
	if up.Table != "accounts" || len(up.Set) != 1 || up.Where == nil {
		t.Errorf("update wrong: %+v", up)
	}
	del := mustParse(t, "DELETE FROM logs WHERE age > 30").(*DeleteStmt)
	if del.Table != "logs" || del.Where == nil {
		t.Errorf("delete wrong: %+v", del)
	}
}

func TestParseCreateDrop(t *testing.T) {
	ct := mustParse(t, "CREATE TABLE emp (id INT, name TEXT, salary FLOAT, active BOOL)").(*CreateTableStmt)
	if len(ct.Cols) != 4 || ct.Cols[2].Type != TFloat {
		t.Errorf("create wrong: %+v", ct)
	}
	ct2 := mustParse(t, "CREATE TABLE x (name VARCHAR(255))").(*CreateTableStmt)
	if ct2.Cols[0].Type != TText {
		t.Errorf("varchar type = %v", ct2.Cols[0].Type)
	}
	if _, ok := mustParse(t, "DROP TABLE emp").(*DropTableStmt); !ok {
		t.Error("drop parse failed")
	}
}

func TestParseTx(t *testing.T) {
	for sql, kind := range map[string]TxKind{"BEGIN": TxBegin, "COMMIT": TxCommit, "ROLLBACK": TxRollback} {
		tx := mustParse(t, sql).(*TxStmt)
		if tx.Kind != kind {
			t.Errorf("%s parsed as %v", sql, tx.Kind)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC name FROM t",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"INSERT stadium VALUES (1)",
		"SELECT * FROM t GROUP",
		"SELECT 'unterminated FROM t",
		"SELECT * FROM t LIMIT x",
		"CREATE TABLE t (a BLOB)",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", sql)
		}
	}
}

func TestParseCommentsAndCase(t *testing.T) {
	s := mustParse(t, "select Name from Stadium -- trailing comment\nwhere Capacity > 1").(*SelectStmt)
	if s.From[0].Name != "Stadium" {
		t.Errorf("table name = %q", s.From[0].Name)
	}
}

// Round-trip property: rendering a parsed statement and re-parsing yields an
// identical rendition.
func TestSQLRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT name FROM stadium WHERE capacity > 50000",
		"SELECT DISTINCT s.name, c.year FROM stadium AS s JOIN concert AS c ON s.stadium_id = c.stadium_id WHERE (c.year = 2014 OR c.year = 2015) ORDER BY s.name LIMIT 10",
		"SELECT city, COUNT(*) AS n FROM stadium GROUP BY city HAVING COUNT(*) > 1",
		"SELECT name FROM stadium WHERE stadium_id IN (SELECT stadium_id FROM concert WHERE year = 2014) UNION SELECT name FROM stadium WHERE capacity > 1000",
		"SELECT name FROM t WHERE x NOT BETWEEN 1 AND 5 AND y IS NULL",
		"INSERT INTO t (a, b) VALUES (1, 'x''y')",
		"UPDATE t SET a = (a + 1) WHERE b LIKE '%z%'",
		"DELETE FROM t WHERE a IN (1, 2)",
		"CREATE TABLE t (a INT, b TEXT)",
		"SELECT name FROM stadium WHERE capacity > (SELECT AVG(capacity) FROM stadium)",
		"SELECT * FROM a EXCEPT SELECT * FROM b",
	}
	for _, q := range queries {
		st1 := mustParse(t, q)
		r1 := st1.SQL()
		st2, err := Parse(r1)
		if err != nil {
			t.Errorf("re-parse of %q failed: %v", r1, err)
			continue
		}
		if r2 := st2.SQL(); r1 != r2 {
			t.Errorf("round trip unstable:\n  1: %s\n  2: %s", r1, r2)
		}
	}
}

func BenchmarkParseComplex(b *testing.B) {
	q := "SELECT s.name, COUNT(*) AS n FROM stadium AS s JOIN concert AS c ON s.stadium_id = c.stadium_id WHERE c.year BETWEEN 2010 AND 2020 AND s.capacity > (SELECT AVG(capacity) FROM stadium) GROUP BY s.name HAVING COUNT(*) > 2 ORDER BY n DESC LIMIT 10"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}
