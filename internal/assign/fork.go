package assign

// Forker is implemented by solvers that can hand out an independent copy of
// themselves for one component of a decomposed instance. The copy must not
// share mutable state with the receiver; seed is the deterministically
// derived component seed (see ComponentSeed), which randomized solvers must
// adopt so results are reproducible regardless of component order. The
// incremental engine forks per dirty component, and solvers without a Fork
// are used as they are.
type Forker interface {
	Fork(seed int64) Solver
}

// splitmix64 is the standard SplitMix64 finalizer — a cheap, well-mixed
// bijection used to spread (parent seed, component key) pairs across the
// seed space.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ComponentSeed derives the seed of the component whose lowest parent task
// position is key. The derivation depends only on the parent seed and the
// component's identity — never on scheduling or component order — so a
// randomized solver produces the same per-component stream however the
// components are visited. The shard tier, scenario arrivals and chaos
// seeding reuse it as a general (seed, key) mixer.
func ComponentSeed(parent int64, key int) int64 {
	return int64(splitmix64(uint64(parent) ^ splitmix64(uint64(key))))
}
