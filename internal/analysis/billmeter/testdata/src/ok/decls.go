// Declarations the ok fixtures share: billmeter reads method and field
// names, so local stand-ins with the serving path's shapes do.
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

type meter struct{ TotalSpend int64 }

type model interface {
	Complete(ctx context.Context, req request) (response, error)
	GenerateStream(ctx context.Context, req request) (stream, error)
	Meter() meter
}

// runStream settles like cascade.RunStream: Result is the billed total.
type runStream interface {
	stream
	Result() (response, int, error)
}

type cascadeRunner interface {
	CompleteStream(ctx context.Context, req request) (runStream, error)
}

// answerStream settles like proxy.Stream: Answer is the billed reply.
type answerStream interface {
	stream
	Answer() (response, error)
}

type proxyLike interface {
	CompleteStream(ctx context.Context, req request) (answerStream, error)
}

type scheduler interface {
	Submit(ctx context.Context, tier string, req request) (response, error)
}

func use(...any)            {}
func addSpend(int64)        {}
func clean(s string) string { return s }
func drain(stream)          {}
