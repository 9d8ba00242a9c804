// Multi-package fixture, package b: a wrapper whose declared result is
// llm.Stream — package a's obligations come from this signature.
package fixture

import (
	"context"

	llm "repro/internal/llm"
)

func Open(ctx context.Context) (llm.Stream, error) { return nil, nil }

// Opener is how package a holds a creator it cannot name: Dialer is the
// concrete one.
type Opener interface {
	Open(ctx context.Context) (llm.Stream, error)
}

type Dialer struct{}

func (Dialer) Open(ctx context.Context) (llm.Stream, error) { return nil, nil }
