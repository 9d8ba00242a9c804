// Fixture: every way an obligation legitimately dies — defer after the
// err guard, direct propagation, field stores, channel sends, bound
// release methods, scratch release, nil self-guards, and arg hand-off.
package fixture

import (
	"context"
	"net/http"

	"repro/internal/embed"
	llm "repro/internal/llm"
	sched "repro/internal/sched"
)

func score(v *embed.Vector) float32                { return 0 }
func open(ctx context.Context) (llm.Stream, error) { return nil, nil }
func newSched() (*sched.Scheduler, error)          { return nil, nil }
func register(s llm.Stream)                        {}

type holder struct {
	s   llm.Stream
	err error
}

// Canonical shape: guard the error, then defer the release.
func deferAfterGuard(ctx context.Context) error {
	s, err := open(ctx)
	if err != nil {
		return err
	}
	defer s.Close()
	return nil
}

// Creator call returned directly: propagation, the caller owns it now.
func propagate(ctx context.Context) (llm.Stream, error) {
	return open(ctx)
}

// Returning the named value also escapes it.
func namedReturn(ctx context.Context) (llm.Stream, error) {
	s, err := open(ctx)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Creation straight into struct fields: stored, not ours to track.
func (h *holder) init(ctx context.Context) {
	h.s, h.err = open(ctx)
}

// The stream goes straight into a field; only the error is a local.
func (h *holder) reopen(ctx context.Context) error {
	var err error
	h.s, err = open(ctx)
	return err
}

// Store after creation transfers ownership to the holder.
func stash(ctx context.Context, h *holder) error {
	s, err := open(ctx)
	if err != nil {
		return err
	}
	h.s = s
	return nil
}

var current llm.Stream

// A package-level variable is a store too, not an alias.
func stashGlobal(ctx context.Context) error {
	s, err := open(ctx)
	if err != nil {
		return err
	}
	current = s
	return nil
}

// Sending on a channel hands the value to the receiver.
func publish(ctx context.Context, ch chan llm.Stream) error {
	s, err := open(ctx)
	if err != nil {
		return err
	}
	ch <- s
	return nil
}

// Bound method value: f := s.Close discharges at the binding.
func boundRelease(ctx context.Context) error {
	s, err := open(ctx)
	if err != nil {
		return err
	}
	f := s.Close
	defer f()
	return nil
}

// Scratch vectors die only through a Release*-named call.
func scratchReleased(p *embed.Embedder, text string) float32 {
	v := p.TextScratch(text)
	defer p.ReleaseScratch(v)
	return score(v)
}

// Non-deferred release works too.
func scratchInline(p *embed.Embedder, text string) float32 {
	v := p.TextScratch(text)
	r := score(v)
	p.ReleaseScratch(v)
	return r
}

// Explicit nil self-guard: nothing to release on the nil path.
func maybeClose(ctx context.Context) {
	s, _ := open(ctx)
	if s != nil {
		s.Close()
	}
}

// Passing a stream to a consumer transfers custody (unlike scratch).
func handOff(ctx context.Context) error {
	s, err := open(ctx)
	if err != nil {
		return err
	}
	register(s)
	return nil
}

// Closer subsystems follow the same discipline.
func withScheduler(ctx context.Context) error {
	sc, err := newSched()
	if err != nil {
		return err
	}
	defer sc.Close()
	return nil
}

// Response bodies close through resp.Body.Close().
func fetchOK(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return nil
}

// An alias is a second name for the same value: closing through either
// name settles the obligation for both.
func aliasClose(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	r2 := resp
	r2.Body.Close()
	return nil
}

// Handing the value off through the alias settles the original name too.
func aliasHandOff(ctx context.Context) error {
	s, err := open(ctx)
	if err != nil {
		return err
	}
	s2 := s
	register(s2)
	return nil
}
