package sqlkit

import "testing"

// FuzzParse asserts the parser is total: any input either parses or
// returns an error — never panics — and successful parses re-render to SQL
// that parses again to the same rendition.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT name FROM stadium WHERE capacity > 50000",
		"SELECT DISTINCT s.name FROM stadium AS s JOIN concert AS c ON s.stadium_id = c.stadium_id",
		"SELECT city, COUNT(*) FROM stadium GROUP BY city HAVING COUNT(*) > 1 ORDER BY city LIMIT 5",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (NULL, 'y''z')",
		"INSERT INTO t SELECT a FROM u",
		"UPDATE t SET a = a + 1 WHERE b IS NOT NULL",
		"DELETE FROM t WHERE a IN (SELECT b FROM u)",
		"CREATE TABLE t (a INT, b VARCHAR(20))",
		"SELECT * FROM a UNION ALL SELECT * FROM b INTERSECT SELECT * FROM c",
		"BEGIN", "COMMIT;", "ROLLBACK",
		"SELECT 1 + 2 * 3 - -4 / 5",
		"SELECT a FROM t WHERE a BETWEEN 1 AND 2 OR b NOT LIKE '%x_' AND NOT c = 'q'",
		"select '", "(((", "SELECT", "", ";;", "--comment only",
		"SELECT \xff\xfe FROM t",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		st, err := Parse(input)
		if err != nil {
			return
		}
		r1 := st.SQL()
		st2, err := Parse(r1)
		if err != nil {
			t.Fatalf("rendition of parsed input does not re-parse:\n input: %q\nrender: %q\n   err: %v", input, r1, err)
		}
		if r2 := st2.SQL(); r1 != r2 {
			t.Fatalf("unstable rendition:\n1: %q\n2: %q", r1, r2)
		}
	})
}

// FuzzExec asserts the executor never panics on parseable input.
func FuzzExec(f *testing.F) {
	f.Add("SELECT * FROM t WHERE a = 1")
	f.Add("SELECT COUNT(*) FROM t GROUP BY a")
	f.Add("SELECT a / 0 FROM t")
	f.Add("SELECT * FROM t JOIN t AS u ON t.a = u.b")
	f.Add("INSERT INTO t VALUES (1, 2.5, 'x')")
	f.Add("UPDATE t SET a = b WHERE c LIKE '%'")
	f.Fuzz(func(t *testing.T, input string) {
		db := NewDB()
		db.Exec("CREATE TABLE t (a INT, b FLOAT, c TEXT)")
		db.Exec("INSERT INTO t VALUES (1, 1.5, 'x'), (NULL, NULL, NULL)")
		db.Exec(input) // must not panic; errors are fine
	})
}
