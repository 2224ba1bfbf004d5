// Package ensembler is a pure-Go reproduction of "Ensembler: Protect
// Collaborative Inference Privacy from Model Inversion Attack via Selective
// Ensemble" (DAC 2025, arXiv:2401.10859). The implementation lives in the
// internal packages; see README.md for the architecture overview, DESIGN.md
// for the system inventory and per-experiment index, cmd/ensembler-bench for
// the command that regenerates every table in the paper's evaluation, and
// bench/ for the benchmark of the serving stack.
package ensembler
