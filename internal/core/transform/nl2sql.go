// Package transform implements the paper's Section II-B applications:
// NL2SQL and NL2Transaction translation, transformation of semi-structured
// documents and spreadsheets into relational tables (Figure 4), column
// pattern mining and column transformation programs, and data-preparation
// pipeline recommendation.
//
//llmdm:allow reach paper §II-B data transformation: DESIGN documents the exported API as paper coverage
package transform

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/llm"
	"repro/internal/workload"
)

// Difficulty calibration for NL2SQL requests. Whole compound questions
// require multi-step reasoning and are hard for a single LLM call; atomic
// sub-questions are easy. These constants encode the mechanism behind the
// paper's Table II ("the sub-queries tend to be simpler, increasing the
// possibility of converting them into correct SQL").
// The values are calibrated against the gpt-3.5 tier (capability 0.80,
// noise ±0.08) so that whole-compound translation succeeds ~62% of the
// time and atomic translation ~94% — reproducing Table II's 79% → 91%
// accuracy lift on the generated question mix.
const (
	DifficultySimple      = 0.30
	DifficultySuperlative = 0.55
	DifficultyCompound    = 0.78
	DifficultyAtomic      = 0.73
)

// Translator converts natural-language questions over the concert/stadium
// schema into SQL via an LLM call. The rule-based parser computes the
// correct translation (the simulated model's gold output); the model's
// capability decides whether the emitted SQL is the correct one or a
// plausible corruption.
type Translator struct {
	Model llm.Model
	// Examples optionally prepends few-shot examples to every prompt,
	// inflating token cost the way real prompts do.
	Examples []string
}

// NewTranslator returns a Translator over the given model.
func NewTranslator(m llm.Model) *Translator {
	return &Translator{Model: m, Examples: defaultExamples()}
}

func defaultExamples() []string {
	return []string{
		"Q: Show the names of stadiums that had concerts in 2012?\nSQL: SELECT DISTINCT s.name FROM stadium AS s JOIN concert AS e ON s.stadium_id = e.stadium_id WHERE e.year = 2012",
		"Q: What are the names of stadiums that have a capacity greater than 30000?\nSQL: SELECT name FROM stadium WHERE capacity > 30000",
	}
}

// Prompt renders the full prompt for a question (schema header, few-shot
// examples, question). Exposed so the query-combination optimizer can
// account for and deduplicate example tokens.
func (t *Translator) Prompt(question string) string {
	var b strings.Builder
	b.WriteString("Translate the question into SQL over tables stadium(stadium_id, name, city, capacity), concert(concert_id, stadium_id, year, attendance), sports_meeting(meeting_id, stadium_id, year).\n")
	for _, ex := range t.Examples {
		b.WriteString(ex)
		b.WriteString("\n")
	}
	b.WriteString("Q: " + question + "\nSQL:")
	return b.String()
}

// Translate converts one NL question to SQL with a single LLM call.
func (t *Translator) Translate(ctx context.Context, question string) (string, llm.Response, error) {
	return t.translate(ctx, question, t.Prompt(question))
}

// TranslateWithPrompt is Translate with a caller-supplied prompt (used by
// query combination, which merges several questions' prompts).
func (t *Translator) TranslateWithPrompt(ctx context.Context, question, prompt string) (string, llm.Response, error) {
	return t.translate(ctx, question, prompt)
}

func (t *Translator) translate(ctx context.Context, question, promptText string) (string, llm.Response, error) {
	parsed, err := ParseQuestion(question)
	if err != nil {
		return "", llm.Response{}, err
	}
	gold := parsed.SQL()
	wrong := corruptSQL(parsed)
	resp, err := t.Model.Complete(ctx, llm.Request{
		Task:       llm.TaskNL2SQL,
		Prompt:     promptText,
		Gold:       gold,
		Wrong:      wrong,
		Difficulty: parsed.Difficulty(),
	})
	if err != nil {
		return "", llm.Response{}, err
	}
	return resp.Text, resp, nil
}

// ParsedQuestion is the structure recovered from an NL question by the
// rule-based grammar: the atoms plus the connective.
type ParsedQuestion struct {
	Atoms []workload.Atom
	Conn  workload.Connective
}

// Difficulty returns the calibrated difficulty of translating the whole
// question in one shot.
func (p ParsedQuestion) Difficulty() float64 {
	if len(p.Atoms) > 1 {
		return DifficultyCompound
	}
	if len(p.Atoms) == 1 && p.Atoms[0].Kind == "most" {
		return DifficultySuperlative
	}
	return DifficultySimple
}

// SQL renders the gold SQL for the parsed question.
func (p ParsedQuestion) SQL() string {
	if len(p.Atoms) == 0 {
		return ""
	}
	sql := p.Atoms[0].SQL()
	if len(p.Atoms) == 2 {
		op := map[workload.Connective]string{
			workload.ConnOr:  " UNION ",
			workload.ConnAnd: " INTERSECT ",
			workload.ConnNot: " EXCEPT ",
		}[p.Conn]
		sql += op + p.Atoms[1].SQL()
	}
	return sql
}

var (
	reHead     = regexp.MustCompile(`(?i)^(what are the names of stadiums that|show the names of stadiums that)\s+(.*?)\??$`)
	reEvent    = regexp.MustCompile(`(?i)^ha[dv]e?\s+(concerts|sports meetings)\s+in\s+(\d{4})$`)
	reMost     = regexp.MustCompile(`(?i)^ha[dv]e?\s+the most number of\s+(concerts|sports meetings)\s+in\s+(\d{4})$`)
	reCapacity = regexp.MustCompile(`(?i)^have a capacity\s+(greater|smaller)\s+than\s+(\d+)$`)
)

// ParseQuestion parses a question produced by the workload grammar into its
// atoms and connective. This parser is the genuinely-implemented core of
// the NL2SQL engine: the simulated LLM's "skill" is whether it applies this
// translation correctly under its capability budget.
func ParseQuestion(q string) (ParsedQuestion, error) {
	m := reHead.FindStringSubmatch(strings.TrimSpace(q))
	if m == nil {
		return ParsedQuestion{}, fmt.Errorf("transform: unrecognized question form %q", q)
	}
	body := m[2]

	// Split on the compound connectives. "but did not" binds the negated
	// branch; plain "or"/"and" join two positive atoms.
	var parts []string
	conn := workload.ConnNone
	switch {
	case strings.Contains(body, " but did not "):
		parts = strings.SplitN(body, " but did not ", 2)
		conn = workload.ConnNot
	case strings.Contains(body, " or "):
		parts = strings.SplitN(body, " or ", 2)
		conn = workload.ConnOr
	case strings.Contains(body, " and "):
		parts = strings.SplitN(body, " and ", 2)
		conn = workload.ConnAnd
	default:
		parts = []string{body}
	}

	var out ParsedQuestion
	out.Conn = conn
	for i, part := range parts {
		a, err := parseAtomPhrase(strings.TrimSpace(part), conn == workload.ConnNot && i == 1)
		if err != nil {
			return ParsedQuestion{}, err
		}
		out.Atoms = append(out.Atoms, a)
	}
	return out, nil
}

// parseAtomPhrase parses one verb phrase. After "but did not", the phrase
// arrives without its own auxiliary ("have concerts in 2014").
func parseAtomPhrase(s string, negContext bool) (workload.Atom, error) {
	if negContext && !strings.HasPrefix(strings.ToLower(s), "have") && !strings.HasPrefix(strings.ToLower(s), "had") {
		s = "have " + s
	}
	if m := reMost.FindStringSubmatch(s); m != nil {
		y, _ := strconv.Atoi(m[2])
		return workload.Atom{Kind: "most", Event: strings.ToLower(m[1]), Year: y}, nil
	}
	if m := reEvent.FindStringSubmatch(s); m != nil {
		y, _ := strconv.Atoi(m[2])
		return workload.Atom{Kind: "event", Event: strings.ToLower(m[1]), Year: y}, nil
	}
	if m := reCapacity.FindStringSubmatch(s); m != nil {
		n, _ := strconv.Atoi(m[2])
		op := ">"
		if strings.EqualFold(m[1], "smaller") {
			op = "<"
		}
		return workload.Atom{Kind: "capacity", CapOp: op, CapN: n}, nil
	}
	return workload.Atom{}, fmt.Errorf("transform: unrecognized condition %q", s)
}

// corruptSQL produces the plausible-but-wrong translation the simulated
// model emits when it errs: compound questions get the wrong set operation,
// atomic questions get an off-by-one year or flipped comparison — the kinds
// of mistakes NL2SQL systems actually make.
func corruptSQL(p ParsedQuestion) string {
	if len(p.Atoms) == 2 {
		wrongOp := map[workload.Connective]string{
			workload.ConnOr:  " INTERSECT ",
			workload.ConnAnd: " UNION ",
			workload.ConnNot: " UNION ",
		}[p.Conn]
		return p.Atoms[0].SQL() + wrongOp + p.Atoms[1].SQL()
	}
	if len(p.Atoms) == 1 {
		a := p.Atoms[0]
		switch a.Kind {
		case "event", "most":
			a.Year++
		case "capacity":
			if a.CapOp == ">" {
				a.CapOp = "<"
			} else {
				a.CapOp = ">"
			}
		}
		return a.SQL()
	}
	return "SELECT name FROM stadium"
}

// TranslateAtomic translates one atomic verb phrase ("had concerts in
// 2014") into its sub-query SQL. Sub-questions are easy (DifficultyAtomic),
// which is what makes decomposition improve accuracy.
func (t *Translator) TranslateAtomic(ctx context.Context, phrase string) (string, llm.Response, error) {
	atom, err := parseAtomPhrase(strings.TrimSpace(phrase), true)
	if err != nil {
		return "", llm.Response{}, err
	}
	gold := atom.SQL()
	wrongAtom := atom
	if wrongAtom.Kind == "capacity" {
		if wrongAtom.CapOp == ">" {
			wrongAtom.CapOp = "<"
		} else {
			wrongAtom.CapOp = ">"
		}
	} else {
		wrongAtom.Year++
	}
	resp, err := t.Model.Complete(ctx, llm.Request{
		Task:       llm.TaskNL2SQL,
		Prompt:     t.Prompt("stadiums that " + phrase),
		Gold:       gold,
		Wrong:      wrongAtom.SQL(),
		Difficulty: DifficultyAtomic,
		NoiseKey:   "atomic:" + phrase,
	})
	if err != nil {
		return "", llm.Response{}, err
	}
	return resp.Text, resp, nil
}
