// Package repro is the root of the Perspective reproduction: a from-scratch
// pure-Go implementation of "Perspective: A Principled Framework for Pliable
// and Secure Speculation in Operating Systems" (ISCA 2024), including the
// speculative out-of-order CPU model, the OS substrate, the DSV/ISV
// speculation-view mechanisms, the attack and auditing frameworks, and the
// experiment harness that regenerates every table and figure of the paper's
// evaluation.
//
// Start with the public API in repro/perspective and the experiment runner
// in cmd/perspective-sim (one -exp per table or figure). DESIGN.md maps
// every paper artifact to its implementing module; EXPERIMENTS.md records
// paper-vs-measured results.
package repro
