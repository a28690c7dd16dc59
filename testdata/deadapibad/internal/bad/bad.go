// Package bad does not type-check, so the dead-API finder must fail on it.
package bad

// X is assigned a string.
var X int = "x"
