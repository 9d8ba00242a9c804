// Package explore implements the paper's Section II-D applications:
// multi-modal data lake management (items of every modality embedded into
// one space, queried semantically with optional attribute filtering) and
// "LLM as databases" (SQL over virtual tables whose cells are fetched from
// an LLM).
//
//llmdm:allow reach paper §II-D data exploration: DESIGN documents the exported API as paper coverage
package explore

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/embed"
	"repro/internal/vector"
)

// Modality tags a lake item.
type Modality string

const (
	Text  Modality = "text"
	Table Modality = "table"
	Image Modality = "image"
	// Log and Triple round out the paper's data-lake inventory
	// ("relational databases, documentation, log files, knowledge graphs").
	Log    Modality = "log"
	Triple Modality = "triple"
)

// Item is one object in the data lake.
type Item struct {
	ID       vector.ID
	Modality Modality
	// Title is a short label (document title, table name, image file name).
	Title string
	// Content is the indexable body (text, serialized row, caption).
	Content string
	// Attrs are filterable attributes (entity type, tenant, source, ...).
	Attrs map[string]string
}

// Hit is one search result.
type Hit struct {
	Item  Item
	Score float64
}

// Lake is a multi-modal data lake over a shared embedding space.
// Lake is safe for concurrent use.
type Lake struct {
	mu     sync.Mutex
	emb    *embed.Embedder
	store  *vector.Flat
	hybrid *vector.Hybrid
	items  map[vector.ID]Item
	nextID vector.ID
}

// NewLake returns an empty lake.
func NewLake(emb *embed.Embedder) *Lake {
	store := vector.NewFlat(emb.Dim(), vector.Cosine)
	return &Lake{
		emb:    emb,
		store:  store,
		hybrid: vector.NewHybrid(store),
		items:  make(map[vector.ID]Item),
	}
}

// Len reports the number of stored items.
func (l *Lake) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}

func (l *Lake) add(it Item, vec embed.Vector) vector.ID {
	l.mu.Lock()
	defer l.mu.Unlock()
	it.ID = l.nextID
	l.nextID++
	if it.Attrs == nil {
		it.Attrs = map[string]string{}
	}
	it.Attrs["modality"] = string(it.Modality)
	l.items[it.ID] = it
	if err := l.store.Add(vector.Item{ID: it.ID, Vec: vec, Attrs: it.Attrs}); err != nil {
		panic(err) // IDs are unique by construction
	}
	return it.ID
}

// AddText indexes a text document.
func (l *Lake) AddText(title, content string, attrs map[string]string) vector.ID {
	return l.add(Item{Modality: Text, Title: title, Content: content, Attrs: cloneAttrs(attrs)},
		l.emb.Text(title+" "+content))
}

// AddTableRow indexes one relational row.
func (l *Lake) AddTableRow(table string, cols, vals []string, attrs map[string]string) vector.ID {
	content := serializeRow(cols, vals)
	return l.add(Item{Modality: Table, Title: table, Content: content, Attrs: cloneAttrs(attrs)},
		l.emb.Row(cols, vals))
}

// AddImage indexes an image by caption and feature descriptor.
func (l *Lake) AddImage(name, caption string, features []float64, attrs map[string]string) vector.ID {
	return l.add(Item{Modality: Image, Title: name, Content: caption, Attrs: cloneAttrs(attrs)},
		l.emb.Image(caption, features))
}

// AddLogLine indexes one log record. The severity and component become
// filterable attributes on top of the caller's.
func (l *Lake) AddLogLine(source, severity, component, message string, attrs map[string]string) vector.ID {
	a := cloneAttrs(attrs)
	a["severity"] = severity
	a["component"] = component
	return l.add(Item{Modality: Log, Title: source, Content: severity + " " + component + " " + message, Attrs: a},
		l.emb.Text(component+" "+message))
}

// AddTriple indexes one knowledge-graph edge as a natural sentence
// ("<subject> <predicate> <object>"), with the subject and predicate as
// filterable attributes.
func (l *Lake) AddTriple(subject, predicate, object string, attrs map[string]string) vector.ID {
	a := cloneAttrs(attrs)
	a["subject"] = subject
	a["predicate"] = predicate
	sentence := subject + " " + strings.ReplaceAll(predicate, "_", " ") + " " + object
	return l.add(Item{Modality: Triple, Title: subject, Content: sentence, Attrs: a},
		l.emb.Text(sentence))
}

func cloneAttrs(attrs map[string]string) map[string]string {
	out := make(map[string]string, len(attrs)+1)
	for k, v := range attrs {
		out[k] = v
	}
	return out
}

func serializeRow(cols, vals []string) string {
	parts := make([]string, 0, len(cols))
	for i, c := range cols {
		if i < len(vals) && vals[i] != "" {
			parts = append(parts, c+" is "+vals[i])
		}
	}
	return strings.Join(parts, ", ")
}

// Search returns the k most semantically similar items to the query across
// all modalities.
func (l *Lake) Search(query string, k int) []Hit {
	return l.HybridSearch(query, k, nil, vector.Adaptive)
}

// HybridSearch is Search with an attribute predicate and an execution-order
// strategy — the Section III-B2 attribute-filtering mechanism that fixes
// the paper's "Prof. Michael Jordan" ambiguity (filter by entity type
// before trusting vector similarity).
func (l *Lake) HybridSearch(query string, k int, pred vector.Predicate, order vector.FilterOrder) []Hit {
	q := l.emb.Text(query)
	res, _ := l.hybrid.Search(q, k, pred, order)
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Hit, 0, len(res))
	for _, r := range res {
		out = append(out, Hit{Item: l.items[r.ID], Score: r.Score})
	}
	return out
}

// Get returns a stored item.
func (l *Lake) Get(id vector.ID) (Item, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	it, ok := l.items[id]
	return it, ok
}

// String implements fmt.Stringer for Hit, used by the CLI tools.
func (h Hit) String() string {
	return fmt.Sprintf("[%s] %s (%.3f): %s", h.Item.Modality, h.Item.Title, h.Score, h.Item.Content)
}
