package lib

import "context"

// Run starts from a root of its own.
func Run() {
	//llmdm:detached the command's process-scoped root
	ctx := context.Background()
	_ = ctx
}
