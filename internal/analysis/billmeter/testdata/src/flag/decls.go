// Declarations the flag fixtures share: billmeter reads method and
// field names, so local stand-ins with the serving path's shapes do.
package fixture

import "context"

type request struct{ Prompt string }

type response struct {
	Text string
	Cost int64
}

type chunk struct {
	Text string
	Cost int64
}

type stream interface {
	Recv() (chunk, error)
	Close() error
}

type model interface {
	Complete(ctx context.Context, req request) (response, error)
	GenerateBatch(ctx context.Context, reqs []request) ([]response, error)
	GenerateStream(ctx context.Context, req request) (stream, error)
}

type cascadeRunner interface {
	CompleteStream(ctx context.Context, req request) (stream, error)
}

func use(...any) {}
