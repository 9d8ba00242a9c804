// Multi-package fixture, package a: the creator lives in package b; its
// declared result type — seen only through b's function index — is what
// puts the obligation on this caller.
package fixture

import (
	"context"

	fixb "fixture/b"
)

func leaks(ctx context.Context) error {
	s, err := fixb.Open(ctx) // want "not released on every path"
	if err != nil {
		return err
	}
	_ = s
	return nil
}

func clean(ctx context.Context) error {
	s, err := fixb.Open(ctx)
	if err != nil {
		return err
	}
	defer s.Close()
	return nil
}

// The creator is reached through an interface value whose concrete type
// lives in package b; the result type alone carries the obligation.
func leaksThroughInterface(ctx context.Context, o fixb.Opener) error {
	s, err := o.Open(ctx) // want "not released on every path"
	if err != nil {
		return err
	}
	_ = s
	return nil
}
