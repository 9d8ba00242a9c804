package exper

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core/transform"
	"repro/internal/llm"
	"repro/internal/workload"
)

// ask is what a client of the served paths asks: the task, the context
// the question comes with, and the question.
type ask struct {
	task              llm.Task
	context, question string
}

// oracle is what the simulated tiers grade a request against: the fields
// of llm.Request that shape its answer beyond the ask.
type oracle struct {
	gold, wrong, wrongAlts string
	difficulty             float64
}

func oracleOf(req llm.Request) oracle {
	return oracle{gold: req.Gold, wrong: req.Wrong,
		wrongAlts: strings.Join(req.WrongAlts, "\x00"), difficulty: req.Difficulty}
}

// oracleClashes counts the requests whose ask was seen before with
// another oracle, and how many asks repeated at all.
func oracleClashes(asks []ask, reqs []llm.Request) (clashes, repeats int) {
	seen := make(map[ask]oracle, len(asks))
	for i, a := range asks {
		o := oracleOf(reqs[i])
		if prev, ok := seen[a]; ok {
			repeats++
			if prev != o {
				clashes++
			}
			continue
		}
		seen[a] = o
	}
	return clashes, repeats
}

// recorder is a tier that keeps every request it is sent.
type recorder struct{ reqs []llm.Request }

func (r *recorder) Name() string { return "recorder" }
func (r *recorder) Complete(_ context.Context, req llm.Request) (llm.Response, error) {
	r.reqs = append(r.reqs, req)
	return llm.Response{Text: req.Gold}, nil
}

// For every generator the served paths use, (task, context, question)
// determines (gold, wrong, wrong_alts, difficulty): the oracle the
// requests carry adds no identity to what a client asks, so a cache or
// coalescing key built from the ask alone cannot join two requests the
// simulator would answer differently. In GenQA no ask repeats, because
// every item's context draws its own distractor paragraphs; the question
// without its context does not determine the oracle, because a QA item
// that repeats an earlier question draws its own distractor and
// difficulty. NL2SQL questions repeat, and each derives its oracle.
func TestAskDeterminesOracle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		seed  int64
		n     int
		build func(workload.QAItem) llm.Request
	}{
		{"qaRequest", qaSeed, 200, qaRequest},
		{"chaosRequest", chaosSeed, 2 * chaosItems, chaosRequest},
	} {
		items := workload.GenQA(tc.seed, tc.n).Items
		asks, bare := make([]ask, len(items)), make([]ask, len(items))
		reqs := make([]llm.Request, len(items))
		for i, it := range items {
			reqs[i] = tc.build(it)
			asks[i] = ask{task: reqs[i].Task, context: it.ContextFor(), question: it.Question}
			bare[i] = ask{task: reqs[i].Task, question: it.Question}
		}
		clashes, asked := oracleClashes(asks, reqs)
		if clashes != 0 {
			t.Errorf("%s over GenQA(%d, %d): %d requests repeat an ask with another oracle", tc.name, tc.seed, tc.n, clashes)
		}
		clashes, repeats := oracleClashes(bare, reqs)
		t.Logf("%s over GenQA(%d, %d): %d items repeat an earlier ask; %d repeat an earlier question, %d of them with another oracle",
			tc.name, tc.seed, tc.n, asked, repeats, clashes)
	}

	rec := &recorder{}
	tr := transform.NewTranslator(rec)
	qs := workload.GenNL2SQL(nl2sqlSeed, 500)
	asks := make([]ask, len(qs))
	for i, q := range qs {
		if _, _, err := tr.Translate(context.Background(), q.Text); err != nil {
			t.Fatalf("Translate(%q): %v", q.Text, err)
		}
		asks[i] = ask{task: llm.TaskNL2SQL, context: tr.Prompt(""), question: q.Text}
	}
	clashes, repeats := oracleClashes(asks, rec.reqs)
	if clashes != 0 {
		t.Errorf("Translator over GenNL2SQL(%d, %d): %d requests repeat an ask with another oracle", nl2sqlSeed, len(qs), clashes)
	}
	if repeats == 0 {
		t.Errorf("Translator over GenNL2SQL(%d, %d): no question repeats, so nothing was checked", nl2sqlSeed, len(qs))
	}
}
