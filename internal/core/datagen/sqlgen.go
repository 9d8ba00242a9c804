// Package datagen implements the paper's Section II-A applications:
// constraint-aware SQL generation for DBMS testing (Figure 2) and training
// data generation for learning-based database components (Figure 3) —
// execution-time labeling, missing-field imputation, and synthetic tabular
// data.
//
//llmdm:allow reach paper §II-A data generation: DESIGN documents the exported API as paper coverage
package datagen

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/llm"
	"repro/internal/sqlkit"
)

// QueryType classifies generated SQL, matching Figure 2's examples.
type QueryType int

const (
	// SimpleQuery is a single-table filter.
	SimpleQuery QueryType = iota
	// MultiJoinQuery joins two or more tables.
	MultiJoinQuery
	// SubQueryQuery nests a sub-query in the predicate.
	SubQueryQuery
)

// String implements fmt.Stringer.
func (t QueryType) String() string {
	switch t {
	case SimpleQuery:
		return "simple"
	case MultiJoinQuery:
		return "multi-join"
	case SubQueryQuery:
		return "sub-query"
	default:
		return "unknown"
	}
}

// Constraints are the user-defined requirements of Figure 2: which query
// shapes to produce, and whether every query must execute and return rows.
type Constraints struct {
	Types []QueryType
	// MustExecute requires generated SQL to run without error.
	MustExecute bool
	// NonEmpty requires a non-empty result (predicates drawn from live
	// data values).
	NonEmpty bool
}

// Generated is one produced query with its observed behaviour.
type Generated struct {
	SQL        string
	Type       QueryType
	Executable bool
	Rows       int
}

// Stats summarizes a generation run.
type Stats struct {
	Requested   int
	Executable  int
	NonEmpty    int
	DistinctSQL int
	LLMCalls    int
	Cost        int64 // micro-dollars
}

// Generator produces SQL against a live database through an LLM call per
// query. The schema walker below computes the correct query (predicates
// sampled from real column values so results are non-empty); weaker model
// tiers sometimes emit a corrupted variant — the executability gap Figure
// 2's validation loop catches.
type Generator struct {
	DB    *sqlkit.DB
	Model llm.Model
	Rng   *rand.Rand
}

// NewGenerator returns a Generator with a seeded RNG.
func NewGenerator(db *sqlkit.DB, m llm.Model, seed int64) *Generator {
	return &Generator{DB: db, Model: m, Rng: rand.New(rand.NewSource(seed))}
}

// Generate produces n queries per the constraints.
func (g *Generator) Generate(ctx context.Context, n int, c Constraints) ([]Generated, Stats, error) {
	types := c.Types
	if len(types) == 0 {
		types = []QueryType{SimpleQuery, MultiJoinQuery, SubQueryQuery}
	}
	var out []Generated
	st := Stats{Requested: n}
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		qt := types[i%len(types)]
		gold, err := g.buildQuery(qt, c)
		if err != nil {
			return nil, st, err
		}
		wrong := corrupt(gold)
		difficulty := map[QueryType]float64{SimpleQuery: 0.10, MultiJoinQuery: 0.35, SubQueryQuery: 0.45}[qt]
		resp, err := g.Model.Complete(ctx, llm.Request{
			Task:       llm.TaskGenerate,
			Prompt:     fmt.Sprintf("Generate a %s SQL query over:\n%sConstraints: executable=%t non-empty=%t (sample %d)", qt, g.DB.SchemaText(), c.MustExecute, c.NonEmpty, i),
			Gold:       gold,
			Wrong:      wrong,
			Difficulty: difficulty,
		})
		if err != nil {
			return nil, st, err
		}
		st.LLMCalls++
		st.Cost += int64(resp.Cost)

		gen := Generated{SQL: resp.Text, Type: qt}
		if r, err := g.DB.Exec(resp.Text); err == nil {
			gen.Executable = true
			gen.Rows = r.NumRows()
		}
		// Figure 2's loop: "LLMs can help users identify and correct
		// errors" — a failed constraint check retries with the gold query
		// (one repair call).
		if (c.MustExecute && !gen.Executable) || (c.NonEmpty && gen.Rows == 0) {
			repair, err := g.Model.Complete(ctx, llm.Request{
				Task:       llm.TaskGenerate,
				Prompt:     "Fix this SQL so it executes and returns rows:\n" + resp.Text,
				Gold:       gold,
				Difficulty: 0, // repair with the error message is easy
			})
			if err != nil {
				return nil, st, err
			}
			st.LLMCalls++
			st.Cost += int64(repair.Cost)
			gen.SQL = repair.Text
			if r, err := g.DB.Exec(repair.Text); err == nil {
				gen.Executable = true
				gen.Rows = r.NumRows()
			}
		}
		if gen.Executable {
			st.Executable++
		}
		if gen.Rows > 0 {
			st.NonEmpty++
		}
		if !seen[gen.SQL] {
			seen[gen.SQL] = true
			st.DistinctSQL++
		}
		out = append(out, gen)
	}
	return out, st, nil
}

// buildQuery constructs a correct query of the requested shape over live
// schema and data.
func (g *Generator) buildQuery(qt QueryType, c Constraints) (string, error) {
	names := g.DB.TableNames()
	if len(names) == 0 {
		return "", fmt.Errorf("datagen: empty database")
	}
	t := g.pickTableWithRows(names)
	if t == nil {
		return "", fmt.Errorf("datagen: no table has rows")
	}
	switch qt {
	case SimpleQuery:
		col, val := g.pickPredicate(t)
		return fmt.Sprintf("SELECT * FROM %s WHERE %s", t.Name, pred(col, val)), nil
	case MultiJoinQuery:
		t2, shared := g.findJoinPartner(t)
		if t2 == nil {
			col, val := g.pickPredicate(t)
			return fmt.Sprintf("SELECT * FROM %s WHERE %s", t.Name, pred(col, val)), nil
		}
		col, val := g.pickPredicate(t)
		return fmt.Sprintf("SELECT a.%s FROM %s AS a JOIN %s AS b ON a.%s = b.%s WHERE a.%s",
			t.Cols[0].Name, t.Name, t2.Name, shared, shared, pred(col, val)), nil
	case SubQueryQuery:
		t2, shared := g.findJoinPartner(t)
		if t2 == nil {
			col, val := g.pickPredicate(t)
			return fmt.Sprintf("SELECT * FROM %s WHERE %s", t.Name, pred(col, val)), nil
		}
		return fmt.Sprintf("SELECT * FROM %s WHERE %s IN (SELECT %s FROM %s)",
			t.Name, shared, shared, t2.Name), nil
	default:
		return "", fmt.Errorf("datagen: unknown query type %v", qt)
	}
}

func (g *Generator) pickTableWithRows(names []string) *sqlkit.Table {
	start := g.Rng.Intn(len(names))
	for i := 0; i < len(names); i++ {
		t := g.DB.Table(names[(start+i)%len(names)])
		if t != nil && len(t.Rows) > 0 {
			return t
		}
	}
	return nil
}

// pickPredicate samples a real value so the predicate selects rows.
func (g *Generator) pickPredicate(t *sqlkit.Table) (string, sqlkit.Value) {
	ci := g.Rng.Intn(len(t.Cols))
	row := t.Rows[g.Rng.Intn(len(t.Rows))]
	return t.Cols[ci].Name, row[ci]
}

// findJoinPartner locates another table sharing a column name (the
// foreign-key heuristic).
func (g *Generator) findJoinPartner(t *sqlkit.Table) (*sqlkit.Table, string) {
	for _, name := range g.DB.TableNames() {
		if strings.EqualFold(name, t.Name) {
			continue
		}
		o := g.DB.Table(name)
		for _, c := range t.Cols {
			for _, oc := range o.Cols {
				if strings.EqualFold(c.Name, oc.Name) {
					return o, c.Name
				}
			}
		}
	}
	return nil, ""
}

func pred(col string, v sqlkit.Value) string {
	switch v.Kind {
	case sqlkit.KindInt, sqlkit.KindFloat:
		return fmt.Sprintf("%s <= %s", col, v.String())
	case sqlkit.KindNull:
		return col + " IS NULL"
	default:
		return fmt.Sprintf("%s = %s", col, v.String())
	}
}

// corrupt produces a realistically broken variant: a typo'd keyword, the
// classic failure of free-form SQL generation.
func corrupt(sql string) string {
	return strings.Replace(sql, "FROM", "FORM", 1)
}

// EquivalencePair is two queries that must return identical results — the
// logic-bug detection protocol (Section II-A1).
type EquivalencePair struct {
	A, B string
}

// EquivalencePairs derives semantically equivalent rewrites of generated
// queries using rule-based transformations, verified by execution in tests.
func EquivalencePairs(queries []Generated) []EquivalencePair {
	var out []EquivalencePair
	for _, q := range queries {
		if !q.Executable {
			continue
		}
		if strings.Contains(q.SQL, " <= ") {
			// x <= v  ≡  NOT (x > v)
			i := strings.Index(q.SQL, "WHERE ")
			if i >= 0 {
				cond := q.SQL[i+6:]
				rewritten := q.SQL[:i+6] + "NOT (" + strings.Replace(cond, " <= ", " > ", 1) + ")"
				out = append(out, EquivalencePair{A: q.SQL, B: rewritten})
			}
		}
		if strings.Contains(q.SQL, " = ") && !strings.Contains(q.SQL, " IN ") && !strings.Contains(q.SQL, "JOIN") {
			// x = v  ≡  x IN (v)
			i := strings.Index(q.SQL, "WHERE ")
			if i >= 0 && strings.Count(q.SQL[i:], " = ") == 1 {
				cond := q.SQL[i+6:]
				parts := strings.SplitN(cond, " = ", 2)
				if len(parts) == 2 {
					rewritten := q.SQL[:i+6] + parts[0] + " IN (" + parts[1] + ")"
					out = append(out, EquivalencePair{A: q.SQL, B: rewritten})
				}
			}
		}
	}
	return out
}
