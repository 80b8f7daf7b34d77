package gpu

// TestSeed exposes testSeed to the external gpu_test package.
var TestSeed = testSeed
