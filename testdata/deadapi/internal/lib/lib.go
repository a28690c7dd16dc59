// Package lib holds one of each kind the dead-API finder must tell apart.
package lib

import "fmt"

// Used is called from main.
func Used() *Box { return &Box{Read: Twin} }

// Dead has no caller and must be reported.
func Dead() {}

// Box has one field that main reads and one that nothing references.
type Box struct {
	Read   int
	Unread int
}

// String satisfies fmt.Stringer and is exempt.
func (b *Box) String() string { return fmt.Sprint(b.Read) }

// Gen is generic; its String satisfies fmt.Stringer and is exempt.
type Gen[T any] struct{ v T }

func (g Gen[T]) String() string { return fmt.Sprint(g.v) }
