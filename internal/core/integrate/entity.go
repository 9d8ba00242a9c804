// Package integrate implements the paper's Section II-C applications:
// entity resolution, schema matching, column type annotation and data
// cleaning via LLM prompting, plus the table-understanding toolkit
// (row/column serialization, SQL-to-natural-language statistics sentences,
// and large-table splitting).
//
//llmdm:allow reach paper §II-C data integration: DESIGN documents the exported API as paper coverage
package integrate

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/llm"
	"repro/internal/token"
	"repro/internal/workload"
)

// trigramSim is Jaccard similarity over character trigrams — the classic
// string-matching core of entity resolution systems.
func trigramSim(a, b string) float64 {
	ta, tb := trigramSet(a), trigramSet(b)
	if len(ta) == 0 || len(tb) == 0 {
		if strings.EqualFold(a, b) {
			return 1
		}
		return 0
	}
	inter := 0
	for g := range ta {
		if tb[g] {
			inter++
		}
	}
	union := len(ta) + len(tb) - inter
	return float64(inter) / float64(union)
}

func trigramSet(s string) map[string]bool {
	s = strings.ToLower(strings.Join(strings.Fields(s), " "))
	out := map[string]bool{}
	r := []rune(s)
	for i := 0; i+3 <= len(r); i++ {
		out[string(r[i:i+3])] = true
	}
	return out
}

// SerializeEntity renders a row as the entity description used in ER
// prompts.
func SerializeEntity(row workload.Row, cols []string) string {
	parts := make([]string, 0, len(cols))
	for _, c := range cols {
		if row[c] != "" {
			parts = append(parts, c+": "+row[c])
		}
	}
	return strings.Join(parts, "; ")
}

// PairScore computes the similarity of two rows over the compared columns
// (mean per-column trigram similarity).
func PairScore(a, b workload.Row, cols []string) float64 {
	if len(cols) == 0 {
		return 0
	}
	var sum float64
	for _, c := range cols {
		sum += trigramSim(a[c], b[c])
	}
	return sum / float64(len(cols))
}

// Resolver performs entity resolution: candidate pairs survive a cheap
// blocking pass, then each pair is judged by an LLM call using the paper's
// prompt ("Are the following entity descriptions the same real-world
// entity?"). The matching engine is the trigram similarity above; the LLM
// tier decides whether its judgment is delivered faithfully, with pairs
// near the decision boundary being hardest.
type Resolver struct {
	Model llm.Model
	// Threshold is the match decision boundary on PairScore.
	Threshold float64
	// CompareCols are the columns entity identity depends on.
	CompareCols []string
	// BlockCol groups rows so only same-block pairs are compared; empty
	// disables blocking.
	BlockCol string
	// Cost accumulates the API spend of every judgment call, error paths
	// included, so callers can account resolution against a budget.
	Cost token.Cost
}

// MatchDecision is the outcome for one candidate pair.
type MatchDecision struct {
	I, J  int
	Score float64
	Match bool
}

// Resolve finds duplicate pairs among rows. It returns the decisions for
// every compared pair and the number of LLM calls made.
func (r *Resolver) Resolve(ctx context.Context, rows []workload.Row) ([]MatchDecision, int, error) {
	return r.judgePairs(ctx, rows, r.candidatePairs(rows))
}

// judgePairs runs the LLM match judgment over an explicit pair list.
func (r *Resolver) judgePairs(ctx context.Context, rows []workload.Row, pairs [][2]int) ([]MatchDecision, int, error) {
	var out []MatchDecision
	calls := 0
	for _, p := range pairs {
		score := PairScore(rows[p[0]], rows[p[1]], r.CompareCols)
		engineSays := score >= r.Threshold
		// Boundary distance drives difficulty: a pair at the threshold is
		// genuinely ambiguous, a clear match/non-match is easy.
		margin := score - r.Threshold
		if margin < 0 {
			margin = -margin
		}
		difficulty := 0.75 - 1.5*margin
		if difficulty < 0.05 {
			difficulty = 0.05
		}
		gold, wrong := "yes", "no"
		if !engineSays {
			gold, wrong = "no", "yes"
		}
		resp, err := r.Model.Complete(ctx, llm.Request{
			Task: llm.TaskLabel,
			Prompt: "Are the following entity descriptions the same real-world entity?\nA: " +
				SerializeEntity(rows[p[0]], r.CompareCols) + "\nB: " + SerializeEntity(rows[p[1]], r.CompareCols),
			Gold:       gold,
			Wrong:      wrong,
			Difficulty: difficulty,
		})
		r.Cost += resp.Cost
		if err != nil {
			return nil, calls, err
		}
		calls++
		out = append(out, MatchDecision{I: p[0], J: p[1], Score: score, Match: resp.Text == "yes"})
	}
	return out, calls, nil
}

// candidatePairs applies blocking: only pairs sharing the block key are
// compared (all pairs when blocking is disabled).
func (r *Resolver) candidatePairs(rows []workload.Row) [][2]int {
	var out [][2]int
	if r.BlockCol == "" {
		for i := 0; i < len(rows); i++ {
			for j := i + 1; j < len(rows); j++ {
				out = append(out, [2]int{i, j})
			}
		}
		return out
	}
	blocks := map[string][]int{}
	for i, row := range rows {
		blocks[strings.ToLower(row[r.BlockCol])] = append(blocks[strings.ToLower(row[r.BlockCol])], i)
	}
	keys := make([]string, 0, len(blocks))
	for k := range blocks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		idx := blocks[k]
		for i := 0; i < len(idx); i++ {
			for j := i + 1; j < len(idx); j++ {
				out = append(out, [2]int{idx[i], idx[j]})
			}
		}
	}
	return out
}

// ExactBaseline is the naive comparator LLM-based ER is measured against:
// two rows match only when every compared column is byte-identical.
func ExactBaseline(rows []workload.Row, cols []string) []MatchDecision {
	var out []MatchDecision
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			match := true
			for _, c := range cols {
				if rows[i][c] != rows[j][c] {
					match = false
					break
				}
			}
			if match {
				out = append(out, MatchDecision{I: i, J: j, Score: 1, Match: true})
			}
		}
	}
	return out
}

// PRF1 grades decisions against gold duplicate pairs.
func PRF1(decisions []MatchDecision, gold [][2]int) (precision, recall, f1 float64) {
	goldSet := map[[2]int]bool{}
	for _, g := range gold {
		goldSet[norm(g)] = true
	}
	tp, fp := 0, 0
	for _, d := range decisions {
		if !d.Match {
			continue
		}
		if goldSet[norm([2]int{d.I, d.J})] {
			tp++
		} else {
			fp++
		}
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if len(gold) > 0 {
		recall = float64(tp) / float64(len(gold))
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return
}

func norm(p [2]int) [2]int {
	if p[0] > p[1] {
		return [2]int{p[1], p[0]}
	}
	return p
}

// String implements fmt.Stringer for diagnostics.
func (d MatchDecision) String() string {
	return fmt.Sprintf("(%d,%d score=%.2f match=%t)", d.I, d.J, d.Score, d.Match)
}
