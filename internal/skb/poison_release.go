//go:build !race && !skbdebug

package skb

// poisonEnabled reports whether Pool.Put scribbles over recycled SKBs.
// Release builds skip the scribble; Get fully zeroes on reuse either way.
const poisonEnabled = false

// poisonByte matches the debug builds' arena scribble value so code may
// reference it unconditionally; release builds never write it.
const poisonByte = 0xA5

func poison(*SKB) {}

func poisonArena([]byte) {}
