//go:build !deadapitwin

package lib

// Twin is read by Used.
const Twin = 0
