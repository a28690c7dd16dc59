package main

import (
	"fmt"

	"deadmod/internal/lib"
)

func main() {
	b := lib.Used()
	fmt.Println(b.Read, b, lib.Gen[int]{})
}
