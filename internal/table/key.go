// Package table implements the projection tables of the paper's engine
// layer (§7): flat signature-major tables (Flat) mapping keys
// (vertex, vertex, [recorded vertices,] signature) → colorful-match count.
// Unary tables (single-boundary blocks) use keys with only U set; binary
// tables use U and V; DB path tables may additionally record one or two
// boundary-node mappings in X and Y (the §5.1 configurations).
package table

import "repro/internal/sig"

// None marks an unused vertex slot in a key.
const None = ^uint32(0)

// Key identifies one projection-table entry. Sig is the signature (set of
// colors used by the counted matches).
type Key struct {
	U, V, X, Y uint32
	S          sig.Sig
}

// Unary returns a key for a single-boundary entry (u, sig).
func Unary(u uint32, s sig.Sig) Key { return Key{U: u, V: None, X: None, Y: None, S: s} }

// Binary returns a key for a two-boundary entry (u, v, sig).
func Binary(u, v uint32, s sig.Sig) Key { return Key{U: u, V: v, X: None, Y: None, S: s} }
