package sqlkit

import (
	"strings"
	"testing"
)

// stadiumDB builds the concert/stadium schema the paper's NL2SQL discussion
// uses (Section III-B1).
func stadiumDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB()
	for _, sql := range []string{
		"CREATE TABLE stadium (stadium_id INT, name TEXT, city TEXT, capacity INT)",
		"CREATE TABLE concert (concert_id INT, stadium_id INT, year INT, attendance INT)",
		"CREATE TABLE sports_meeting (meeting_id INT, stadium_id INT, year INT)",
		"INSERT INTO stadium VALUES (1, 'Anfield', 'Liverpool', 54000), (2, 'Camp Nou', 'Barcelona', 99000), (3, 'Old Trafford', 'Manchester', 74000), (4, 'San Siro', 'Milan', 80000), (5, 'Wembley', 'London', 90000)",
		"INSERT INTO concert VALUES (10, 1, 2014, 40000), (11, 1, 2014, 35000), (12, 2, 2014, 80000), (13, 3, 2015, 60000), (14, 4, 2013, 50000), (15, 5, 2014, 85000)",
		"INSERT INTO sports_meeting VALUES (20, 1, 2015), (21, 2, 2015), (22, 4, 2015)",
	} {
		query(t, db, sql)
	}
	return db
}

func query(t testing.TB, db *DB, sql string) *Result {
	t.Helper()
	r, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return r
}

func names(r *Result) []string {
	var out []string
	for _, row := range r.Rows {
		out = append(out, row[0].Display())
	}
	return out
}

func TestSelectWhere(t *testing.T) {
	db := stadiumDB(t)
	r := query(t, db, "SELECT name FROM stadium WHERE capacity > 80000")
	got := names(r)
	if len(got) != 2 || got[0] != "Camp Nou" || got[1] != "Wembley" {
		t.Errorf("got %v", got)
	}
}

func TestSelectStarColumns(t *testing.T) {
	db := stadiumDB(t)
	r := query(t, db, "SELECT * FROM stadium LIMIT 1")
	if len(r.Cols) != 4 || r.Cols[0] != "stadium_id" {
		t.Errorf("cols = %v", r.Cols)
	}
}

func TestJoinExec(t *testing.T) {
	db := stadiumDB(t)
	r := query(t, db, "SELECT DISTINCT s.name FROM stadium AS s JOIN concert AS c ON s.stadium_id = c.stadium_id WHERE c.year = 2014 ORDER BY s.name")
	got := names(r)
	want := []string{"Anfield", "Camp Nou", "Wembley"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestLeftJoinExec(t *testing.T) {
	db := stadiumDB(t)
	// Old Trafford had no 2014 concert; LEFT JOIN keeps it with NULLs.
	r := query(t, db, "SELECT s.name, c.concert_id FROM stadium AS s LEFT JOIN (SELECT * FROM concert WHERE year = 2014) AS c ON s.stadium_id = c.stadium_id ORDER BY s.name")
	found := false
	for _, row := range r.Rows {
		if row[0].Display() == "Old Trafford" {
			found = true
			if !row[1].IsNull() {
				t.Errorf("Old Trafford concert_id = %v, want NULL", row[1])
			}
		}
	}
	if !found {
		t.Error("LEFT JOIN dropped unmatched row")
	}
}

func TestGroupByAggregates(t *testing.T) {
	db := stadiumDB(t)
	r := query(t, db, "SELECT stadium_id, COUNT(*) AS n, SUM(attendance) AS total, AVG(attendance) AS mean FROM concert GROUP BY stadium_id ORDER BY stadium_id")
	if len(r.Rows) != 5 {
		t.Fatalf("groups = %d, want 5", len(r.Rows))
	}
	// stadium 1 has two concerts: 40000 + 35000.
	first := r.Rows[0]
	if first[1].Int != 2 || first[2].Int != 75000 {
		t.Errorf("stadium 1 aggregates wrong: %v", first)
	}
	if first[3].Float != 37500 {
		t.Errorf("avg = %v, want 37500", first[3])
	}
}

func TestHaving(t *testing.T) {
	db := stadiumDB(t)
	r := query(t, db, "SELECT stadium_id FROM concert GROUP BY stadium_id HAVING COUNT(*) > 1")
	if len(r.Rows) != 1 || r.Rows[0][0].Int != 1 {
		t.Errorf("got %v", r.Rows)
	}
}

func TestMinMax(t *testing.T) {
	db := stadiumDB(t)
	r := query(t, db, "SELECT MIN(capacity), MAX(capacity) FROM stadium")
	if r.Rows[0][0].Int != 54000 || r.Rows[0][1].Int != 99000 {
		t.Errorf("min/max = %v", r.Rows[0])
	}
}

func TestCountDistinct(t *testing.T) {
	db := stadiumDB(t)
	r := query(t, db, "SELECT COUNT(DISTINCT year) FROM concert")
	if r.Rows[0][0].Int != 3 {
		t.Errorf("distinct years = %v, want 3", r.Rows[0][0])
	}
}

func TestOrderByDesc(t *testing.T) {
	db := stadiumDB(t)
	r := query(t, db, "SELECT name FROM stadium ORDER BY capacity DESC LIMIT 2")
	got := names(r)
	if got[0] != "Camp Nou" || got[1] != "Wembley" {
		t.Errorf("got %v", got)
	}
}

func TestSubqueryIn(t *testing.T) {
	db := stadiumDB(t)
	r := query(t, db, "SELECT name FROM stadium WHERE stadium_id IN (SELECT stadium_id FROM sports_meeting WHERE year = 2015) ORDER BY name")
	got := names(r)
	want := []string{"Anfield", "Camp Nou", "San Siro"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestCorrelatedExists(t *testing.T) {
	db := stadiumDB(t)
	r := query(t, db, "SELECT name FROM stadium AS s WHERE EXISTS (SELECT 1 FROM concert AS c WHERE c.stadium_id = s.stadium_id AND c.year = 2015)")
	got := names(r)
	if len(got) != 1 || got[0] != "Old Trafford" {
		t.Errorf("got %v", got)
	}
}

func TestScalarSubquery(t *testing.T) {
	db := stadiumDB(t)
	r := query(t, db, "SELECT name FROM stadium WHERE capacity > (SELECT AVG(capacity) FROM stadium) ORDER BY name")
	got := names(r)
	want := []string{"Camp Nou", "San Siro", "Wembley"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestSetOperations(t *testing.T) {
	db := stadiumDB(t)
	// Paper's Q1: concerts in 2014 OR sports meetings in 2015.
	union := query(t, db, `SELECT s.name FROM stadium AS s JOIN concert AS c ON s.stadium_id = c.stadium_id WHERE c.year = 2014 UNION SELECT s.name FROM stadium AS s JOIN sports_meeting AS m ON s.stadium_id = m.stadium_id WHERE m.year = 2015`)
	if len(union.Rows) != 4 {
		t.Errorf("union rows = %d, want 4: %v", len(union.Rows), names(union))
	}
	// Paper's Q4: 2014 concerts AND 2015 sports meetings.
	inter := query(t, db, `SELECT s.name FROM stadium AS s JOIN concert AS c ON s.stadium_id = c.stadium_id WHERE c.year = 2014 INTERSECT SELECT s.name FROM stadium AS s JOIN sports_meeting AS m ON s.stadium_id = m.stadium_id WHERE m.year = 2015`)
	got := names(inter)
	if len(got) != 2 {
		t.Errorf("intersect = %v, want Anfield and Camp Nou", got)
	}
	// Paper's Q5: 2014 concerts but NOT 2015 sports meetings.
	except := query(t, db, `SELECT DISTINCT s.name FROM stadium AS s JOIN concert AS c ON s.stadium_id = c.stadium_id WHERE c.year = 2014 EXCEPT SELECT s.name FROM stadium AS s JOIN sports_meeting AS m ON s.stadium_id = m.stadium_id WHERE m.year = 2015`)
	got = names(except)
	if len(got) != 1 || got[0] != "Wembley" {
		t.Errorf("except = %v, want [Wembley]", got)
	}
}

func TestDerivedTableExec(t *testing.T) {
	db := stadiumDB(t)
	r := query(t, db, "SELECT t.n FROM (SELECT COUNT(*) AS n FROM concert) AS t")
	if r.Rows[0][0].Int != 6 {
		t.Errorf("n = %v", r.Rows[0][0])
	}
}

func TestLikeAndBetween(t *testing.T) {
	db := stadiumDB(t)
	r := query(t, db, "SELECT name FROM stadium WHERE name LIKE '%old%' OR capacity BETWEEN 89000 AND 100000 ORDER BY name")
	got := names(r)
	want := []string{"Camp Nou", "Old Trafford", "Wembley"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestNullSemantics(t *testing.T) {
	db := NewDB()
	db.Exec("CREATE TABLE t (a INT, b INT)")
	db.Exec("INSERT INTO t VALUES (1, NULL), (2, 5), (NULL, NULL)")
	// NULL comparisons filter out.
	r := query(t, db, "SELECT a FROM t WHERE b > 1")
	if len(r.Rows) != 1 || r.Rows[0][0].Int != 2 {
		t.Errorf("null filter wrong: %v", r.Rows)
	}
	// COUNT(col) skips NULLs; COUNT(*) does not.
	r = query(t, db, "SELECT COUNT(a), COUNT(*) FROM t")
	if r.Rows[0][0].Int != 2 || r.Rows[0][1].Int != 3 {
		t.Errorf("count = %v", r.Rows[0])
	}
	// IS NULL.
	r = query(t, db, "SELECT COUNT(*) FROM t WHERE b IS NULL")
	if r.Rows[0][0].Int != 2 {
		t.Errorf("is-null count = %v", r.Rows[0][0])
	}
	// x IN (..., NULL) is unknown when no match.
	r = query(t, db, "SELECT COUNT(*) FROM t WHERE a IN (99, NULL)")
	if r.Rows[0][0].Int != 0 {
		t.Errorf("in-with-null = %v", r.Rows[0][0])
	}
}

func TestInsertUpdateDelete(t *testing.T) {
	db := stadiumDB(t)
	r := query(t, db, "INSERT INTO stadium VALUES (6, 'Signal Iduna Park', 'Dortmund', 81000)")
	if r.Affected != 1 {
		t.Errorf("insert affected = %d", r.Affected)
	}
	r = query(t, db, "UPDATE stadium SET capacity = capacity + 1000 WHERE city = 'Dortmund'")
	if r.Affected != 1 {
		t.Errorf("update affected = %d", r.Affected)
	}
	got := query(t, db, "SELECT capacity FROM stadium WHERE stadium_id = 6")
	if got.Rows[0][0].Int != 82000 {
		t.Errorf("capacity = %v", got.Rows[0][0])
	}
	r = query(t, db, "DELETE FROM stadium WHERE stadium_id = 6")
	if r.Affected != 1 {
		t.Errorf("delete affected = %d", r.Affected)
	}
	if query(t, db, "SELECT COUNT(*) FROM stadium").Rows[0][0].Int != 5 {
		t.Error("delete did not remove row")
	}
}

func TestTransactionCommitAndRollback(t *testing.T) {
	db := NewDB()
	db.Exec("CREATE TABLE accounts (owner TEXT, balance INT)")
	db.Exec("INSERT INTO accounts VALUES ('Alice', 5000), ('Bob', 100), ('Express', 0)")

	// The paper's NL2Transaction example: Alice pays Bob $1000, Bob pays the
	// express company $5.
	for _, sql := range []string{
		"BEGIN",
		"UPDATE accounts SET balance = balance - 1000 WHERE owner = 'Alice'",
		"UPDATE accounts SET balance = balance + 1000 WHERE owner = 'Bob'",
		"UPDATE accounts SET balance = balance - 5 WHERE owner = 'Bob'",
		"UPDATE accounts SET balance = balance + 5 WHERE owner = 'Express'",
		"COMMIT",
	} {
		query(t, db, sql)
	}
	r := query(t, db, "SELECT balance FROM accounts WHERE owner = 'Bob'")
	if r.Rows[0][0].Int != 1095 {
		t.Errorf("Bob balance = %v, want 1095", r.Rows[0][0])
	}

	// Rollback restores the pre-transaction state.
	db.Exec("BEGIN")
	db.Exec("UPDATE accounts SET balance = 0 WHERE owner = 'Alice'")
	db.Exec("ROLLBACK")
	r = query(t, db, "SELECT balance FROM accounts WHERE owner = 'Alice'")
	if r.Rows[0][0].Int != 4000 {
		t.Errorf("Alice balance after rollback = %v, want 4000", r.Rows[0][0])
	}
}

func TestTransactionErrors(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("COMMIT"); err == nil {
		t.Error("COMMIT outside tx succeeded")
	}
	if _, err := db.Exec("ROLLBACK"); err == nil {
		t.Error("ROLLBACK outside tx succeeded")
	}
	db.Exec("BEGIN")
	if _, err := db.Exec("BEGIN"); err == nil {
		t.Error("nested BEGIN succeeded")
	}
}

func TestUnknownTableAndColumn(t *testing.T) {
	db := stadiumDB(t)
	if _, err := db.Exec("SELECT * FROM nope"); err == nil {
		t.Error("unknown table succeeded")
	}
	if _, err := db.Exec("SELECT missing FROM stadium"); err == nil {
		t.Error("unknown column succeeded")
	}
	if _, err := db.Exec("INSERT INTO stadium (bad_col) VALUES (1)"); err == nil {
		t.Error("insert into unknown column succeeded")
	}
}

func TestScalarFunctions(t *testing.T) {
	db := stadiumDB(t)
	r := query(t, db, "SELECT UPPER(name), LOWER(city), LENGTH(name) FROM stadium WHERE stadium_id = 1")
	row := r.Rows[0]
	if row[0].Str != "ANFIELD" || row[1].Str != "liverpool" || row[2].Int != 7 {
		t.Errorf("functions wrong: %v", row)
	}
	r = query(t, db, "SELECT ABS(-5), ROUND(3.6), COALESCE(NULL, 7)")
	row = r.Rows[0]
	if row[0].Int != 5 || row[1].Int != 4 || row[2].Int != 7 {
		t.Errorf("scalar funcs: %v", row)
	}
}

func TestArithmeticAndDivisionByZero(t *testing.T) {
	db := NewDB()
	r := query(t, db, "SELECT 2 + 3 * 4, 10 / 4, 10 / 5, 1 / 0")
	row := r.Rows[0]
	if row[0].Int != 14 {
		t.Errorf("precedence: %v", row[0])
	}
	if row[1].Float != 2.5 {
		t.Errorf("10/4 = %v", row[1])
	}
	if row[2].Int != 2 {
		t.Errorf("10/5 = %v", row[2])
	}
	if !row[3].IsNull() {
		t.Errorf("1/0 = %v, want NULL", row[3])
	}
}

func TestResultEquivalence(t *testing.T) {
	db := stadiumDB(t)
	a := query(t, db, "SELECT name FROM stadium WHERE capacity > 80000 ORDER BY name")
	b := query(t, db, "SELECT name FROM stadium WHERE capacity > 80000 ORDER BY name DESC")
	if !a.EqualBag(b) {
		t.Error("bag equality failed for reordered results")
	}
	if a.EqualOrdered(b) {
		t.Error("ordered equality true for reordered results")
	}
	c := query(t, db, "SELECT name FROM stadium WHERE capacity > 90000")
	if a.EqualBag(c) {
		t.Error("bag equality true for different results")
	}
}

func TestSemanticEquivalencePairs(t *testing.T) {
	db := stadiumDB(t)
	// Rewrites that must produce identical result bags (logic-bug detection
	// protocol from the paper's Section II-A).
	pairs := [][2]string{
		{
			"SELECT name FROM stadium WHERE capacity > 60000 AND city <> 'Milan'",
			"SELECT name FROM stadium WHERE NOT (capacity <= 60000 OR city = 'Milan')",
		},
		{
			"SELECT name FROM stadium WHERE capacity BETWEEN 54000 AND 80000",
			"SELECT name FROM stadium WHERE capacity >= 54000 AND capacity <= 80000",
		},
		{
			"SELECT stadium_id FROM concert WHERE year IN (2013, 2015)",
			"SELECT stadium_id FROM concert WHERE year = 2013 OR year = 2015",
		},
	}
	for _, p := range pairs {
		a, b := query(t, db, p[0]), query(t, db, p[1])
		if !a.EqualBag(b) {
			t.Errorf("semantically equivalent queries disagree:\n  %s -> %v\n  %s -> %v",
				p[0], a.Rows, p[1], b.Rows)
		}
	}
}

func TestFormat(t *testing.T) {
	db := stadiumDB(t)
	out := query(t, db, "SELECT name, city FROM stadium WHERE stadium_id = 1").Format()
	if !strings.Contains(out, "Anfield") || !strings.Contains(out, "Liverpool") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestSchemaText(t *testing.T) {
	db := stadiumDB(t)
	s := db.SchemaText()
	for _, want := range []string{"CREATE TABLE stadium", "capacity INT", "CREATE TABLE concert"} {
		if !strings.Contains(s, want) {
			t.Errorf("schema text missing %q:\n%s", want, s)
		}
	}
}

func TestInsertSelect(t *testing.T) {
	db := stadiumDB(t)
	if _, err := db.Exec("CREATE TABLE big_stadiums (name TEXT, capacity INT)"); err != nil {
		t.Fatal(err)
	}
	r, err := db.Exec("INSERT INTO big_stadiums (name, capacity) SELECT name, capacity FROM stadium WHERE capacity > 80000")
	if err != nil {
		t.Fatal(err)
	}
	if r.Affected != 2 {
		t.Errorf("affected = %d, want 2", r.Affected)
	}
	got, _ := db.Exec("SELECT name FROM big_stadiums ORDER BY name")
	if len(got.Rows) != 2 || got.Rows[0][0].Display() != "Camp Nou" {
		t.Errorf("rows = %v", got.Rows)
	}
}

func TestInsertSelectArityMismatch(t *testing.T) {
	db := stadiumDB(t)
	db.Exec("CREATE TABLE narrow (name TEXT)")
	if _, err := db.Exec("INSERT INTO narrow SELECT name, capacity FROM stadium"); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestInsertSelectRoundTripSQL(t *testing.T) {
	st := mustParse(t, "INSERT INTO t (a) SELECT x FROM u WHERE x > 1")
	r1 := st.SQL()
	st2, err := Parse(r1)
	if err != nil {
		t.Fatalf("re-parse %q: %v", r1, err)
	}
	if st2.SQL() != r1 {
		t.Errorf("round trip unstable: %q vs %q", r1, st2.SQL())
	}
}

func TestInsertSelectArchivePattern(t *testing.T) {
	// The archival pattern: snapshot old rows into a history table, then
	// delete them — all through the SQL surface, inside a transaction.
	db := stadiumDB(t)
	for _, sql := range []string{
		"CREATE TABLE concert_archive (concert_id INT, stadium_id INT, year INT, attendance INT)",
		"BEGIN",
		"INSERT INTO concert_archive SELECT * FROM concert WHERE year < 2014",
		"DELETE FROM concert WHERE year < 2014",
		"COMMIT",
	} {
		query(t, db, sql)
	}
	live, _ := db.Exec("SELECT COUNT(*) FROM concert")
	archived, _ := db.Exec("SELECT COUNT(*) FROM concert_archive")
	if archived.Rows[0][0].Int != 1 { // one 2013 concert in the fixture
		t.Errorf("archived = %v", archived.Rows[0][0])
	}
	if live.Rows[0][0].Int != 5 {
		t.Errorf("live = %v", live.Rows[0][0])
	}
}

func BenchmarkExecJoinGroup(b *testing.B) {
	db := stadiumDB(b)
	q := "SELECT s.name, COUNT(*) AS n FROM stadium AS s JOIN concert AS c ON s.stadium_id = c.stadium_id GROUP BY s.name ORDER BY n DESC"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashJoin(b *testing.B) {
	db := NewDB()
	db.Exec("CREATE TABLE l (id INT, v INT)")
	db.Exec("CREATE TABLE r (id INT, v INT)")
	for i := 0; i < 500; i++ {
		db.InsertRow("l", []Value{IntVal(int64(i)), IntVal(int64(i * 2))})
		db.InsertRow("r", []Value{IntVal(int64(i)), IntVal(int64(i * 3))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("SELECT COUNT(*) FROM l JOIN r ON l.id = r.id"); err != nil {
			b.Fatal(err)
		}
	}
}
