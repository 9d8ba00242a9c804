//go:build !amd64

package embed

// headPaths lists DotInt8HeadsPass's assembly paths: none off amd64.
func headPaths() []headPath { return nil }
