package numeric

// Test-only hooks for the external numeric_test package, whose tests
// import the circuit and engine layers (which import numeric) to analyze
// real CUT patterns against the oracle.

// AnalyzeSparseOracle is analyzeSparseOracle.
var AnalyzeSparseOracle = analyzeSparseOracle

// SymbolicDiff is symbolicDiff.
var SymbolicDiff = symbolicDiff

// CheckAgainstOracle is checkAgainstOracle.
var CheckAgainstOracle = checkAgainstOracle

// RandPattern is randPattern.
var RandPattern = randPattern
