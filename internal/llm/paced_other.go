//go:build !linux

package llm

import (
	"context"
	"time"
)

// sleep waits d (> 0) on a runtime timer; only Linux has a timerfd.
func sleep(ctx context.Context, d time.Duration) error { return timerSleep(ctx, d) }
