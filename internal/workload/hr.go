package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/sqlkit"
)

// EmployeeDB builds a second NL2SQL domain — employees assigned to
// projects and attending trainings — used to show the domain-generic
// translator working beyond the concert schema.
//
//llmdm:allow reach a fixture the core packages' tests build on
func EmployeeDB(seed int64) *sqlkit.DB {
	rng := rand.New(rand.NewSource(seed))
	db := sqlkit.NewDB()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(db.CreateTable("employee", []sqlkit.Column{
		{Name: "employee_id", Type: sqlkit.TInt},
		{Name: "name", Type: sqlkit.TText},
		{Name: "department", Type: sqlkit.TText},
		{Name: "salary", Type: sqlkit.TInt},
	}))
	must(db.CreateTable("project_assignment", []sqlkit.Column{
		{Name: "assign_id", Type: sqlkit.TInt},
		{Name: "employee_id", Type: sqlkit.TInt},
		{Name: "year", Type: sqlkit.TInt},
	}))
	must(db.CreateTable("training_session", []sqlkit.Column{
		{Name: "session_id", Type: sqlkit.TInt},
		{Name: "employee_id", Type: sqlkit.TInt},
		{Name: "year", Type: sqlkit.TInt},
	}))

	departments := []string{"engineering", "finance", "operations", "research"}
	kb := GenKB(seed + 23)
	n := 16
	for i := 0; i < n; i++ {
		must(db.InsertRow("employee", []sqlkit.Value{
			sqlkit.IntVal(int64(i + 1)),
			sqlkit.StringVal(kb.People[i%len(kb.People)].Name),
			sqlkit.StringVal(departments[rng.Intn(len(departments))]),
			sqlkit.IntVal(int64(40000 + rng.Intn(12)*5000)),
		}))
	}
	aid, sid := 1, 1
	for year := 2013; year <= 2018; year++ {
		for i := 0; i < n; i++ {
			for k := 0; k < rng.Intn(3); k++ {
				must(db.InsertRow("project_assignment", []sqlkit.Value{
					sqlkit.IntVal(int64(aid)), sqlkit.IntVal(int64(i + 1)), sqlkit.IntVal(int64(year)),
				}))
				aid++
			}
			if rng.Float64() < 0.4 {
				must(db.InsertRow("training_session", []sqlkit.Value{
					sqlkit.IntVal(int64(sid)), sqlkit.IntVal(int64(i + 1)), sqlkit.IntVal(int64(year)),
				}))
				sid++
			}
		}
	}
	return db
}

// EmployeeQuestions renders n deterministic NL questions over the
// employee domain, with their gold SQL produced by the same phrase
// vocabulary the DomainSpec grammar accepts.
//
//llmdm:allow reach a fixture the core packages' tests build on
func EmployeeQuestions(seed int64, n int) []NLQuery {
	rng := rand.New(rand.NewSource(seed))
	years := []int{2013, 2014, 2015, 2016, 2017}
	type atom struct {
		phrase string
		sql    string
	}
	eventAtom := func(verb, noun, table string, year int) atom {
		return atom{
			phrase: fmt.Sprintf("%s %s in %d", verb, noun, year),
			sql: fmt.Sprintf("SELECT DISTINCT h.name FROM employee AS h JOIN %s AS e ON h.employee_id = e.employee_id WHERE e.year = %d",
				table, year),
		}
	}
	attrAtom := func(op string, nv int) atom {
		word := "greater"
		if op == "<" {
			word = "smaller"
		}
		return atom{
			phrase: fmt.Sprintf("have a salary %s than %d", word, nv),
			sql:    fmt.Sprintf("SELECT name FROM employee WHERE salary %s %d", op, nv),
		}
	}
	randomAtom := func() atom {
		switch rng.Intn(4) {
		case 0:
			return attrAtom(pick(rng, []string{">", "<"}), 45000+rng.Intn(8)*5000)
		case 1:
			return eventAtom("attended", "trainings", "training_session", years[rng.Intn(len(years))])
		default:
			return eventAtom("worked on", "projects", "project_assignment", years[rng.Intn(len(years))])
		}
	}

	var out []NLQuery
	for i := 0; i < n; i++ {
		head := pick(rng, []string{"What are the names of employees that", "Show the names of employees that"})
		var q NLQuery
		q.ID = i
		if i%2 == 0 {
			a, b := randomAtom(), randomAtom()
			for b.phrase == a.phrase {
				b = randomAtom()
			}
			switch rng.Intn(3) {
			case 0:
				q.Text = fmt.Sprintf("%s %s or %s?", head, a.phrase, b.phrase)
				q.GoldSQL = a.sql + " UNION " + b.sql
				q.Conn = ConnOr
			case 1:
				q.Text = fmt.Sprintf("%s %s and %s?", head, a.phrase, b.phrase)
				q.GoldSQL = a.sql + " INTERSECT " + b.sql
				q.Conn = ConnAnd
			default:
				q.Text = fmt.Sprintf("%s %s but not %s?", head, a.phrase, b.phrase)
				q.GoldSQL = a.sql + " EXCEPT " + b.sql
				q.Conn = ConnNot
			}
			q.Class = Compound
		} else {
			a := randomAtom()
			q.Text = fmt.Sprintf("%s %s?", head, a.phrase)
			q.GoldSQL = a.sql
			q.Class = Simple
		}
		out = append(out, q)
	}
	return out
}
