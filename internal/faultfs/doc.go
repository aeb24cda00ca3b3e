// Package faultfs abstracts the narrow filesystem surface the durability
// layer touches and provides a deterministic fault-injection wrapper over
// it. Production code runs on OS (a zero-cost passthrough to package os);
// tests wrap it in a Faulty to inject ENOSPC, torn writes and transient
// errors at exact points — the only way to prove the degraded-mode
// serving contract (DESIGN.md §10) without unreliable tricks like full
// tmpfs partitions.
//
// # Contracts
//
// Determinism: injected faults fire at exact, caller-specified points —
// the Nth write, writes after a byte budget — never probabilistically, so
// a failing robustness test replays identically. Torn writes really
// persist their prefix, matching what a crashed kernel leaves behind;
// the WAL's (and so the session journal's) torn-frame recovery is tested
// against that exact shape.
//
// Pass-through fidelity: OS adds no buffering, caching or retry of its
// own. Whatever semantics the platform gives os.File, callers get.
package faultfs
