// Package qopt implements LLM query optimization for batched NL2SQL
// workloads — the paper's Section III-B1: query decomposition (compound
// questions split into atomic sub-queries, shared sub-queries translated
// once), query combination (shared prompt headers and few-shot examples
// billed once per batch), and a cost-aware planner that decides which
// queries to decompose so that the chosen (sub-)query set covers the batch
// at minimum token cost.
package qopt

import (
	"context"
	"strings"

	"repro/internal/core/transform"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/token"
	"repro/internal/workload"
)

// SubQuery is one atomic sub-question with its normalized sharing key.
type SubQuery struct {
	Phrase string
	Key    string
}

// Decomposition is a question split into sub-queries plus the composition
// connective — Figure 7's yellow boxes.
type Decomposition struct {
	Question string
	Parsed   transform.ParsedQuestion
	Subs     []SubQuery
}

// Decompose splits a question into its atomic sub-queries.
func Decompose(question string) (Decomposition, error) {
	p, err := transform.ParseQuestion(question)
	if err != nil {
		return Decomposition{}, err
	}
	d := Decomposition{Question: question, Parsed: p}
	for _, a := range p.Atoms {
		phrase := a.Phrase()
		d.Subs = append(d.Subs, SubQuery{Phrase: phrase, Key: strings.ToLower(phrase)})
	}
	return d, nil
}

// Compose reassembles the final SQL from translated sub-query SQL.
func Compose(p transform.ParsedQuestion, subSQL []string) string {
	if len(subSQL) == 0 {
		return ""
	}
	sql := subSQL[0]
	if len(subSQL) == 2 {
		op := map[workload.Connective]string{
			workload.ConnOr:  " UNION ",
			workload.ConnAnd: " INTERSECT ",
			workload.ConnNot: " EXCEPT ",
		}[p.Conn]
		sql += op + subSQL[1]
	}
	return sql
}

// Translated is one question's final SQL plus whether every underlying LLM
// answer was the gold one (used by harnesses for grading without
// re-execution; execution-based grading remains the primary protocol).
type Translated struct {
	Question string
	SQL      string
	AllGold  bool
}

// BatchStats aggregates what a strategy spent.
type BatchStats struct {
	LLMCalls     int
	InputTokens  int
	OutputTokens int
	Cost         token.Cost
	// UniqueSubQueries and TotalSubQueries quantify sharing (Figure 7).
	UniqueSubQueries int
	TotalSubQueries  int
}

// CallsSaved reports LLM calls avoided by sub-query sharing.
func (s BatchStats) CallsSaved() int { return s.TotalSubQueries - s.UniqueSubQueries }

// Planner executes a batch of NL questions under one of the three
// strategies Table II compares.
type Planner struct {
	Translator *transform.Translator
	// Obs receives per-strategy call/token/cost/savings counters.
	Obs *obs.Registry
}

// NewPlanner wraps a translator.
func NewPlanner(tr *transform.Translator) *Planner { return &Planner{Translator: tr} }

func addResp(st *BatchStats, resp llm.Response) {
	st.LLMCalls++
	st.InputTokens += resp.InputTokens
	st.OutputTokens += resp.OutputTokens
	st.Cost += resp.Cost
}

// observe records a finished (or failed) batch's spend and savings under
// the strategy label and closes its span. Called via defer so partial
// spend on an errored batch is still accounted.
func (p *Planner) observe(strategy string, st *BatchStats, sp *obs.Span) {
	p.Obs.Counter("qopt_batches_total", "strategy", strategy).Inc()
	p.Obs.Counter("qopt_llm_calls_total", "strategy", strategy).Add(int64(st.LLMCalls))
	p.Obs.Counter("qopt_tokens_total", "strategy", strategy, "direction", "input").Add(int64(st.InputTokens))
	p.Obs.Counter("qopt_tokens_total", "strategy", strategy, "direction", "output").Add(int64(st.OutputTokens))
	p.Obs.Counter("qopt_cost_microusd_total", "strategy", strategy).Add(int64(st.Cost))
	p.Obs.Counter("qopt_calls_saved_total", "strategy", strategy).Add(int64(st.CallsSaved()))
	sp.SetAttr("llm_calls", st.LLMCalls)
	sp.SetAttr("cost_microusd", int64(st.Cost))
	sp.SetAttr("calls_saved", st.CallsSaved())
	sp.End()
}

// RunOrigin translates each question with one whole-query LLM call — the
// Table II "Origin" column.
func (p *Planner) RunOrigin(ctx context.Context, questions []string) ([]Translated, BatchStats, error) {
	var out []Translated
	var st BatchStats
	ctx, sp := obs.StartSpan(ctx, "qopt.batch")
	sp.SetAttr("strategy", "origin")
	defer p.observe("origin", &st, sp)
	for _, q := range questions {
		sql, resp, err := p.Translator.Translate(ctx, q)
		if err != nil {
			return nil, st, err
		}
		addResp(&st, resp)
		out = append(out, Translated{Question: q, SQL: sql, AllGold: resp.Correct})
	}
	return out, st, nil
}

// RunDecomposed decomposes every question, translates each *unique*
// sub-query once, and composes the final SQL — the Table II
// "Decomposition" column and the Figure 7 sharing mechanism.
func (p *Planner) RunDecomposed(ctx context.Context, questions []string) ([]Translated, BatchStats, error) {
	decomps := make([]Decomposition, len(questions))
	var st BatchStats
	ctx, sp := obs.StartSpan(ctx, "qopt.batch")
	sp.SetAttr("strategy", "decomposed")
	defer p.observe("decomposed", &st, sp)
	for i, q := range questions {
		d, err := Decompose(q)
		if err != nil {
			return nil, st, err
		}
		decomps[i] = d
		st.TotalSubQueries += len(d.Subs)
	}

	type subResult struct {
		sql  string
		gold bool
	}
	cache := map[string]subResult{}
	for _, d := range decomps {
		for _, s := range d.Subs {
			if _, ok := cache[s.Key]; ok {
				continue
			}
			sql, resp, err := p.Translator.TranslateAtomic(ctx, s.Phrase)
			if err != nil {
				return nil, st, err
			}
			addResp(&st, resp)
			st.UniqueSubQueries++
			cache[s.Key] = subResult{sql: sql, gold: resp.Correct}
		}
	}

	var out []Translated
	for _, d := range decomps {
		subSQL := make([]string, len(d.Subs))
		allGold := true
		for i, s := range d.Subs {
			r := cache[s.Key]
			subSQL[i] = r.sql
			allGold = allGold && r.gold
		}
		out = append(out, Translated{Question: d.Question, SQL: Compose(d.Parsed, subSQL), AllGold: allGold})
	}
	return out, st, nil
}

// RunDecomposedCombined is RunDecomposed plus query combination: unique
// sub-queries are grouped into batches that share one prompt header
// (instruction + few-shot examples), so the header's tokens are billed once
// per batch instead of once per sub-query — the Table II
// "Decomposition+Combination" column.
func (p *Planner) RunDecomposedCombined(ctx context.Context, questions []string, batchSize int) ([]Translated, BatchStats, error) {
	if batchSize <= 0 {
		batchSize = 5
	}
	decomps := make([]Decomposition, len(questions))
	var st BatchStats
	ctx, sp := obs.StartSpan(ctx, "qopt.batch")
	sp.SetAttr("strategy", "combined")
	defer p.observe("combined", &st, sp)
	for i, q := range questions {
		d, err := Decompose(q)
		if err != nil {
			return nil, st, err
		}
		decomps[i] = d
		st.TotalSubQueries += len(d.Subs)
	}

	// Collect unique sub-queries in first-seen order.
	var order []SubQuery
	seen := map[string]bool{}
	for _, d := range decomps {
		for _, s := range d.Subs {
			if seen[s.Key] {
				continue
			}
			seen[s.Key] = true
			order = append(order, s)
		}
	}
	st.UniqueSubQueries = len(order)

	type subResult struct {
		sql  string
		gold bool
	}
	cache := map[string]subResult{}
	header := p.Translator.Prompt("") // shared instruction + examples
	for start := 0; start < len(order); start += batchSize {
		end := start + batchSize
		if end > len(order) {
			end = len(order)
		}
		for i := start; i < end; i++ {
			s := order[i]
			// Combination billing: the first sub-query of a batch carries
			// the shared header; the rest pay only their own text.
			promptText := "stadiums that " + s.Phrase
			if i == start {
				promptText = header + "\n" + promptText
			}
			sql, resp, err := p.translateAtomicWithPrompt(ctx, s.Phrase, promptText)
			if err != nil {
				return nil, st, err
			}
			addResp(&st, resp)
			cache[s.Key] = subResult{sql: sql, gold: resp.Correct}
		}
	}

	var out []Translated
	for _, d := range decomps {
		subSQL := make([]string, len(d.Subs))
		allGold := true
		for i, s := range d.Subs {
			r := cache[s.Key]
			subSQL[i] = r.sql
			allGold = allGold && r.gold
		}
		out = append(out, Translated{Question: d.Question, SQL: Compose(d.Parsed, subSQL), AllGold: allGold})
	}
	return out, st, nil
}

// translateAtomicWithPrompt mirrors Translator.TranslateAtomic but with a
// caller-controlled prompt (for combined billing). Accuracy behavior is
// identical: atomic difficulty, atomic corruption.
func (p *Planner) translateAtomicWithPrompt(ctx context.Context, phrase, promptText string) (string, llm.Response, error) {
	// Reuse the translator's atomic gold/wrong computation by delegating to
	// a temporary translator whose prompt we override via the model call.
	d, err := Decompose("What are the names of stadiums that " + phrase + "?")
	if err != nil {
		return "", llm.Response{}, err
	}
	atom := d.Parsed.Atoms[0]
	gold := atom.SQL()
	wrong := atom
	if wrong.Kind == "capacity" {
		if wrong.CapOp == ">" {
			wrong.CapOp = "<"
		} else {
			wrong.CapOp = ">"
		}
	} else {
		wrong.Year++
	}
	resp, err := p.Translator.Model.Complete(ctx, llm.Request{
		Task:       llm.TaskNL2SQL,
		Prompt:     promptText,
		Gold:       gold,
		Wrong:      wrong.SQL(),
		Difficulty: transform.DifficultyAtomic,
		NoiseKey:   "atomic:" + phrase,
	})
	if err != nil {
		return "", llm.Response{}, err
	}
	return resp.Text, resp, nil
}

// RunPlanned executes a batch under PlanBatch's cost-aware decisions:
// questions marked for decomposition go through shared atomic translation,
// the rest are translated whole. It realizes the paper's "find the set of
// (sub-)queries with minimum costs that can cover all the original
// queries" end to end.
func (p *Planner) RunPlanned(ctx context.Context, questions []string) ([]Translated, BatchStats, error) {
	decisions, err := PlanBatch(p.Translator, questions)
	if err != nil {
		return nil, BatchStats{}, err
	}
	var st BatchStats
	ctx, sp := obs.StartSpan(ctx, "qopt.batch")
	sp.SetAttr("strategy", "planned")
	defer p.observe("planned", &st, sp)
	type subResult struct {
		sql  string
		gold bool
	}
	cache := map[string]subResult{}
	var out []Translated
	for i, q := range questions {
		if !decisions[i].Decompose {
			sql, resp, err := p.Translator.Translate(ctx, q)
			if err != nil {
				return nil, st, err
			}
			addResp(&st, resp)
			out = append(out, Translated{Question: q, SQL: sql, AllGold: resp.Correct})
			continue
		}
		d, err := Decompose(q)
		if err != nil {
			return nil, st, err
		}
		st.TotalSubQueries += len(d.Subs)
		subSQL := make([]string, len(d.Subs))
		allGold := true
		for si, s := range d.Subs {
			r, ok := cache[s.Key]
			if !ok {
				sql, resp, err := p.Translator.TranslateAtomic(ctx, s.Phrase)
				if err != nil {
					return nil, st, err
				}
				addResp(&st, resp)
				st.UniqueSubQueries++
				r = subResult{sql: sql, gold: resp.Correct}
				cache[s.Key] = r
			}
			subSQL[si] = r.sql
			allGold = allGold && r.gold
		}
		out = append(out, Translated{Question: q, SQL: Compose(d.Parsed, subSQL), AllGold: allGold})
	}
	return out, st, nil
}

// PlanDecision records the cost-aware planner's choice for one question.
type PlanDecision struct {
	Question  string
	Decompose bool
	// MarginalTokens is the estimated prompt-token cost of the chosen path
	// at planning time (new sub-queries only, when decomposing).
	MarginalTokens int
}

// PlanBatch is the greedy minimum-cost covering pass the paper calls for:
// walking the batch in order, each question is decomposed when the marginal
// token cost of its *not yet covered* sub-queries is below the cost of
// translating it whole (shared sub-queries are free once chosen). Compound
// questions additionally favor decomposition for accuracy, so ties break
// toward decomposing.
func PlanBatch(tr *transform.Translator, questions []string) ([]PlanDecision, error) {
	chosen := map[string]bool{}
	var out []PlanDecision
	for _, q := range questions {
		d, err := Decompose(q)
		if err != nil {
			return nil, err
		}
		whole := token.Count(tr.Prompt(q))
		marginal := 0
		for _, s := range d.Subs {
			if !chosen[s.Key] {
				marginal += token.Count(tr.Prompt("stadiums that " + s.Phrase))
			}
		}
		dec := PlanDecision{Question: q}
		if marginal <= whole || len(d.Subs) > 1 {
			dec.Decompose = true
			dec.MarginalTokens = marginal
			for _, s := range d.Subs {
				chosen[s.Key] = true
			}
		} else {
			dec.MarginalTokens = whole
		}
		out = append(out, dec)
	}
	return out, nil
}
