// Package chaos is the run-lifecycle robustness harness (DESIGN.md §11):
// it cancels runs at chosen round boundaries and corrupts or truncates
// checkpoint bytes, and runs the conformance oracle with a wrong-answer
// defect armed in its naive model, then asserts the robustness machinery
// holds: the oracle catches every armed defect, cancellation never tears a
// Result, and no corrupt checkpoint is ever accepted. Panic containment is
// tested in internal/sim, which arms the panic with a test-only strategy
// wrapper.
//
// The package provides the scenario vocabulary and runners; the batteries
// themselves live in its tests and run in CI's chaos job under the race
// detector.
package chaos
