//go:build !race

package comm_test

// p99Tolerance is the relative band the predicted-vs-measured p99 gate of
// the end-to-end serving test allows.
const p99Tolerance = 0.20
