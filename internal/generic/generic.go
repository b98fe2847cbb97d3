// Package generic implements the section 6 construction: asserting a
// linear order hypothetically on an unordered domain.
//
// A rulebase cannot select one particular order of the domain — nothing
// distinguishes the elements — but it can assert every order, one after
// another, and run an order-dependent computation under each. For generic
// (isomorphism-invariant) queries the result is the same under every
// order, so the answer is well defined. OrderRules emits the paper's six
// rules, which hypothetically insert
//
//	first1(a1), next1(a1, a2), ..., next1(a_{n-1}, a_n), last1(a_n)
//
// for each permutation a1..an of the elements satisfying the domain
// predicate, and then try to derive the 0-ary goal accept.
package generic

import (
	"fmt"
	"strings"
)

// OrderRules returns the section 6.2.1 rulebase asserting every linear
// order over the elements of domPred/1. The caller supplies rules that
// define the 0-ary predicate accept in terms of first1/next1/last1 (and
// last1 may be absent for domains of size 0; in that case yes is simply
// not derivable, matching the paper, whose construction assumes a
// non-empty domain).
func OrderRules(domPred string) string {
	return strings.ReplaceAll(`yes :- sel(X), order(X)[add: first1(X)].
order(X) :- sel(Y), order(Y)[add: next1(X, Y)].
order(X) :- not sel(Y), accept[add: last1(X)].
sel(Y) :- @DOM@(Y), not selected(Y).
selected(Y) :- first1(Y).
selected(Y) :- next1(X, Y).
`, "@DOM@", domPred)
}

// ParityViaOrder is a complete generic query built on OrderRules: yes
// holds iff the number of elements of domPred is odd. The position parity
// of the last element of the asserted order decides it — a computation
// that needs an order, run on an unordered domain.
func ParityViaOrder(domPred string) string {
	return OrderRules(domPred) + `oddpos(X) :- first1(X).
evenpos(Y) :- next1(X, Y), oddpos(X).
oddpos(Y) :- next1(X, Y), evenpos(X).
accept :- last1(X), oddpos(X).
`
}

// DomainFacts renders n facts domPred(e1). ... domPred(en).
func DomainFacts(domPred string, names []string) string {
	var b strings.Builder
	for _, nm := range names {
		fmt.Fprintf(&b, "%s(%s).\n", domPred, nm)
	}
	return b.String()
}
