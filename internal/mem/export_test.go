package mem

// BuildHMC is buildHMC for the external benchmarks in bench_test.go,
// which import fault (a decorator over this package) and so cannot be
// in package mem.
var BuildHMC = buildHMC
