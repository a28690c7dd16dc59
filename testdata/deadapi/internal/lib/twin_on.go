//go:build deadapitwin

package lib

// Twin is declared again in twin_off.go; this file is excluded by its
// build tag, so the finder neither loads it nor reports it.
const Twin = 1

// Excluded would be dead, but its file is never built.
func Excluded() {}
