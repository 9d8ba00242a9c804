package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/sqlkit"
)

// QueryClass labels NL2SQL query complexity.
type QueryClass int

const (
	// Simple queries have one atomic condition.
	Simple QueryClass = iota
	// Compound queries connect two atomic conditions with or/and/but-not —
	// the paper's Q1/Q4/Q5 shapes, which map to set operations.
	Compound
	// Superlative queries ask for "the most number of ..." — the paper's
	// Q2/Q3 shapes.
	Superlative
)

// Connective joins two atomic conditions in a compound question.
type Connective int

const (
	ConnNone Connective = iota
	ConnOr              // -> UNION
	ConnAnd             // -> INTERSECT
	ConnNot             // "but did not" -> EXCEPT
)

// Atom is one atomic condition on stadiums.
type Atom struct {
	// Kind is "event", "most", or "capacity".
	Kind string
	// Event is "concerts" or "sports meetings" for event/most kinds.
	Event string
	Year  int
	// CapOp is ">" or "<" and CapN the bound, for capacity kind.
	CapOp string
	CapN  int
}

// Phrase renders the atom as the verb phrase used inside questions.
func (a Atom) Phrase() string {
	switch a.Kind {
	case "event":
		return fmt.Sprintf("had %s in %d", a.Event, a.Year)
	case "most":
		return fmt.Sprintf("had the most number of %s in %d", a.Event, a.Year)
	case "capacity":
		word := "greater"
		if a.CapOp == "<" {
			word = "smaller"
		}
		return fmt.Sprintf("have a capacity %s than %d", word, a.CapN)
	default:
		return "?"
	}
}

// SQL renders the gold SQL answering "names of stadiums that <atom>".
func (a Atom) SQL() string {
	table := "concert"
	if a.Event == "sports meetings" {
		table = "sports_meeting"
	}
	switch a.Kind {
	case "event":
		return fmt.Sprintf("SELECT DISTINCT s.name FROM stadium AS s JOIN %s AS e ON s.stadium_id = e.stadium_id WHERE e.year = %d", table, a.Year)
	case "most":
		return fmt.Sprintf("SELECT s.name FROM stadium AS s JOIN %s AS e ON s.stadium_id = e.stadium_id WHERE e.year = %d GROUP BY s.name ORDER BY COUNT(*) DESC, s.name ASC LIMIT 1", table, a.Year)
	case "capacity":
		return fmt.Sprintf("SELECT name FROM stadium WHERE capacity %s %d", a.CapOp, a.CapN)
	default:
		return ""
	}
}

// NLQuery is one NL2SQL benchmark item.
type NLQuery struct {
	ID      int
	Text    string
	GoldSQL string
	Class   QueryClass
	Conn    Connective
	Atoms   []Atom
}

// ConcertDB builds the concert/stadium database the Spider-style questions
// run against.
func ConcertDB(seed int64) *sqlkit.DB {
	rng := rand.New(rand.NewSource(seed))
	db := sqlkit.NewDB()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(db.CreateTable("stadium", []sqlkit.Column{
		{Name: "stadium_id", Type: sqlkit.TInt},
		{Name: "name", Type: sqlkit.TText},
		{Name: "city", Type: sqlkit.TText},
		{Name: "capacity", Type: sqlkit.TInt},
	}))
	must(db.CreateTable("concert", []sqlkit.Column{
		{Name: "concert_id", Type: sqlkit.TInt},
		{Name: "stadium_id", Type: sqlkit.TInt},
		{Name: "year", Type: sqlkit.TInt},
		{Name: "attendance", Type: sqlkit.TInt},
	}))
	must(db.CreateTable("sports_meeting", []sqlkit.Column{
		{Name: "meeting_id", Type: sqlkit.TInt},
		{Name: "stadium_id", Type: sqlkit.TInt},
		{Name: "year", Type: sqlkit.TInt},
	}))

	nStadiums := 18
	for i := 0; i < nStadiums; i++ {
		name := fmt.Sprintf("%s Arena", cityNames[i%len(cityNames)])
		must(db.InsertRow("stadium", []sqlkit.Value{
			sqlkit.IntVal(int64(i + 1)),
			sqlkit.StringVal(name),
			sqlkit.StringVal(cityNames[i%len(cityNames)]),
			sqlkit.IntVal(int64(20000 + rng.Intn(17)*5000)),
		}))
	}
	cid, mid := 1, 1
	for year := 2010; year <= 2019; year++ {
		for i := 0; i < nStadiums; i++ {
			for ev := 0; ev < rng.Intn(3); ev++ {
				must(db.InsertRow("concert", []sqlkit.Value{
					sqlkit.IntVal(int64(cid)),
					sqlkit.IntVal(int64(i + 1)),
					sqlkit.IntVal(int64(year)),
					sqlkit.IntVal(int64(5000 + rng.Intn(60000))),
				}))
				cid++
			}
			if rng.Float64() < 0.35 {
				must(db.InsertRow("sports_meeting", []sqlkit.Value{
					sqlkit.IntVal(int64(mid)),
					sqlkit.IntVal(int64(i + 1)),
					sqlkit.IntVal(int64(year)),
				}))
				mid++
			}
		}
	}
	return db
}

// GenNL2SQL generates n NL2SQL items. The mix is biased toward compound
// questions (the shape Table II's decomposition experiment targets) with a
// deliberately small atom vocabulary so that distinct questions share
// sub-queries, as in the paper's Figure 7 example.
func GenNL2SQL(seed int64, n int) []NLQuery {
	rng := rand.New(rand.NewSource(seed))
	years := []int{2012, 2013, 2014, 2015, 2016, 2017}
	events := []string{"concerts", "sports meetings"}
	caps := []int{30000, 40000, 50000, 60000, 70000, 80000}

	randomAtom := func() Atom {
		switch rng.Intn(5) {
		case 0:
			return Atom{Kind: "capacity", CapOp: pick(rng, []string{">", "<"}), CapN: caps[rng.Intn(len(caps))]}
		case 1:
			return Atom{Kind: "most", Event: events[rng.Intn(len(events))], Year: years[rng.Intn(len(years))]}
		default:
			return Atom{Kind: "event", Event: events[rng.Intn(len(events))], Year: years[rng.Intn(len(years))]}
		}
	}

	var out []NLQuery
	for i := 0; i < n; i++ {
		var q NLQuery
		q.ID = i
		head := pick(rng, []string{"What are the names of stadiums that", "Show the names of stadiums that"})
		switch {
		case i%5 < 3: // 60% compound
			a, b := randomAtom(), randomAtom()
			for b.Phrase() == a.Phrase() {
				b = randomAtom()
			}
			conn := Connective(1 + rng.Intn(3))
			q.Class = Compound
			q.Conn = conn
			q.Atoms = []Atom{a, b}
			switch conn {
			case ConnOr:
				q.Text = fmt.Sprintf("%s %s or %s?", head, a.Phrase(), b.Phrase())
				q.GoldSQL = a.SQL() + " UNION " + b.SQL()
			case ConnAnd:
				q.Text = fmt.Sprintf("%s %s and %s?", head, a.Phrase(), b.Phrase())
				q.GoldSQL = a.SQL() + " INTERSECT " + b.SQL()
			case ConnNot:
				q.Text = fmt.Sprintf("%s %s but did not %s?", head, a.Phrase(), negatedPhrase(b))
				q.GoldSQL = a.SQL() + " EXCEPT " + b.SQL()
			}
		case i%5 == 3: // 20% superlative
			a := Atom{Kind: "most", Event: events[rng.Intn(len(events))], Year: years[rng.Intn(len(years))]}
			q.Class = Superlative
			q.Atoms = []Atom{a}
			q.Text = fmt.Sprintf("%s %s?", head, a.Phrase())
			q.GoldSQL = a.SQL()
		default: // 20% simple
			a := randomAtom()
			for a.Kind == "most" {
				a = randomAtom()
			}
			q.Class = Simple
			q.Atoms = []Atom{a}
			q.Text = fmt.Sprintf("%s %s?", head, a.Phrase())
			q.GoldSQL = a.SQL()
		}
		out = append(out, q)
	}
	return out
}

// negatedPhrase renders the atom as it appears after "but did not".
func negatedPhrase(a Atom) string {
	switch a.Kind {
	case "event":
		return fmt.Sprintf("have %s in %d", a.Event, a.Year)
	case "most":
		return fmt.Sprintf("have the most number of %s in %d", a.Event, a.Year)
	case "capacity":
		word := "greater"
		if a.CapOp == "<" {
			word = "smaller"
		}
		return fmt.Sprintf("have a capacity %s than %d", word, a.CapN)
	default:
		return "?"
	}
}

func pick(rng *rand.Rand, opts []string) string { return opts[rng.Intn(len(opts))] }
