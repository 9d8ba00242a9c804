package fixture

import "context"

type request struct{ Prompt string }

type response struct{ Cost int64 }

type model interface {
	GenerateBatch(ctx context.Context, reqs []request) ([]response, error)
}

func use(...any) {}
