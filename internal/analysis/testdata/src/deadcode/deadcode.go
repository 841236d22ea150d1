// Package main is a casc-lint golden fixture for the deadcode rule. Its
// import path lies under internal/, so every exported declaration that
// main does not reach is reported.
package main

import (
	"fmt"
	"sort"
)

// Limit is reached: main reads it.
const Limit = 3

// Version is never read.
var Version = "1" // want deadcode

// Reached is called from main.
func Reached() int { return helper() }

func helper() int { return 1 }

// Unreached has no caller at all.
func Unreached() {} // want deadcode

// Chain heads a dead two-link chain: nothing calls Chain, and only Chain
// calls Link, so both links are reported.
func Chain() int { return Link() } // want deadcode

// Link is reached only from the dead Chain.
func Link() int { return 2 } // want deadcode

// ByLen satisfies sort.Interface, which main uses through sort.Sort: its
// methods are reached through the interface, not by direct calls.
type ByLen []string

func (s ByLen) Len() int           { return len(s) }
func (s ByLen) Less(i, j int) bool { return len(s[i]) < len(s[j]) }
func (s ByLen) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// First is a method of a reached type that nothing calls.
func (s ByLen) First() string { return s[0] } // want deadcode

// Label's String is reached through fmt's reflection on Stringer.
type Label struct{}

func (Label) String() string { return "label" }

// Orphan is unreached; its methods fold into the type's finding.
type Orphan struct{} // want deadcode

// Name belongs to the dead Orphan and is not reported on its own.
func (Orphan) Name() string { return "orphan" }

// Oracle is kept on purpose, so the suppression absorbs its finding.
//
//casclint:ignore deadcode reference oracle the fixture's tests compare against
func Oracle() int { return OracleHelper() }

// OracleHelper is reached only from the suppressed Oracle, which roots it.
func OracleHelper() int { return 3 }

func main() {
	s := ByLen{"bb", "a"}
	sort.Sort(s)
	fmt.Println(Reached(), s, Label{}, Limit)
}
