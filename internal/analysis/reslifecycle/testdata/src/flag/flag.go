// Fixture: obligations leaked on some path — early returns, discarded
// results, scratch vectors used but never released, unclosed response
// bodies, creations dropped on the floor, and leaks inside goroutine
// literals. All diagnostics anchor at the creation site.
package fixture

import (
	"context"
	"errors"
	"net/http"

	"repro/internal/embed"
	llm "repro/internal/llm"
)

var errBusy = errors.New("busy")

func open(ctx context.Context) (llm.Stream, error) { return nil, nil }

func tooBusy() bool { return false }

func consume(v *embed.Vector) {}

// The happy path closes, but the admission-control early return leaks.
func earlyReturn(ctx context.Context) error {
	s, err := open(ctx) // want "not released on every path"
	if err != nil {
		return err
	}
	if tooBusy() {
		return errBusy
	}
	s.Close()
	return nil
}

// Deliberately discarding a stream still leaks the connection.
func discard(ctx context.Context) error {
	_, err := open(ctx) // want "not released on every path"
	return err
}

// Passing a scratch vector to a consumer is use, not release.
func scratchLeak(p *embed.Embedder, text string) {
	v := p.TextScratch(text) // want "not released on every path"
	consume(v)
}

// The body is read but never closed on either branch.
func fetchLeak(url string) error {
	resp, err := http.Get(url) // want "not released on every path"
	if err != nil {
		return err
	}
	if resp.StatusCode != 200 {
		return errBusy
	}
	return nil
}

// Creation dropped on the floor: nobody can ever close it.
func dropOnFloor(ctx context.Context) {
	open(ctx) // want "not released on every path"
}

// A goroutine literal is its own obligation scope: the stream opened
// inside must be closed inside.
func inGoroutine(ctx context.Context) {
	go func() {
		s, err := open(ctx) // want "not released on every path"
		if err != nil {
			return
		}
		_ = s
	}()
}

// Taking an alias releases nothing: two names, one obligation, still
// leaked — and reported once, at the creation.
func aliasLeak(url string) error {
	resp, err := http.Get(url) // want "not released on every path"
	if err != nil {
		return err
	}
	r2 := resp
	_ = r2.StatusCode
	return nil
}
