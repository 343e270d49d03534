package fleet

// Fixtures shared with the external test package: promaudit_test.go
// scrapes a rig that includes a vscsim.Sim, and vscsim imports this
// package.
var (
	MakeRegistry = makeRegistry
	Feed         = feed
)

// Tiers groups an aggregator's host set by federation level, ascending.
func Tiers(g *Aggregator) []TierStatus { return tiersOf(g.Hosts()) }
