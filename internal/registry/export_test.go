package registry

// Exported for package registry_test, whose tests import the journal —
// which the package's own tests cannot, since the journal imports registry.
var (
	NewTestStore  = newStore
	SeedStatusMix = seedStatusMix
	LiveHeap      = liveHeap
)
