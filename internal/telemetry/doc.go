// Package telemetry is the observability layer shared by both
// execution planes: a labeled metric registry, a deterministic span
// tracer, and a structured transition-event log.
//
// The three pillars:
//
//   - Registry holds labeled counter, gauge and latency-histogram
//     families (histograms wrap metrics.Histogram, so the exported
//     quantiles are the same log-bucketed estimates the experiments
//     report). Instruments are wired once at construction time — the
//     metrichygiene analyzer enforces init-time registration — and are
//     lock-free (atomics) or single-mutex on the observation path.
//     Every constructor is nil-receiver safe: instruments created from
//     a nil *Registry keep counting but are invisible to exporters,
//     which is how components stay unconditionally instrumented while
//     telemetry remains optional.
//
//   - Tracer records spans under an injected Clock with IDs drawn from
//     a seeded generator — no wall clock, no global rand, per the
//     repository's determinism contract (this package is on the
//     transdeterminism replay-critical list). On the DES plane the same
//     seed therefore yields a byte-identical trace dump; on the live
//     plane the boundary (cmd/proteusd) injects time.Now. Completed
//     spans land in a bounded ring buffer.
//
//   - EventLog captures every Algorithm 2 / Section IV phase of a
//     provisioning transition — digest build, broadcast, ownership
//     flip, amortized migration hit/miss (the digest false-positive
//     consult), TTL expiry, power on/off — with per-transition
//     migration counts, so the Fig. 7/8 style accounting the
//     experiments compute offline is also available from a live
//     cluster.
//
// Export: Registry.WritePrometheus emits Prometheus text format,
// Tracer.WriteJSON / EventLog.WriteJSON emit deterministic JSON, and
// AdminMux bundles all three with net/http/pprof into the handler
// cmd/proteusd serves.
package telemetry
