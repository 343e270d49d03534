// Package fleet federates the characterization service across hosts. The
// paper instruments one ESX server at a time, but its histograms are
// constant-space and bin-exact under merge — counters add and identical bin
// layouts add bin-wise — which is exactly the property a multi-host rollup
// needs: a datacenter-wide seek-distance histogram is the bin-wise sum of
// every host's, with nothing lost to sampling or re-binning.
//
// The package has four parts:
//
//   - a versioned wire codec (wire.go: framing, header and CRC-32C
//     trailer; payload.go: sparse zig-zag varint snapshots) that carries
//     batches of core.Snapshot between processes, in one format generation;
//   - an Agent that periodically serializes a host's core.Registry and
//     pushes it to an aggregator, with per-request timeouts, exponential
//     backoff with jitter, a bounded retry queue and drop counters;
//   - an Aggregator that ingests pushes, tracks per-host liveness/staleness,
//     and merges per-host snapshots into per-VM and cluster-wide views via
//     core.Aggregate (bin-exact, all/reads/writes preserved);
//   - a crash-safe segment log (log.go) that persists every state-changing
//     batch as wire frames, nothing else, under a data dir, replays them on boot
//     through the same strict apply rules (truncating a crash-torn tail
//     frame, refusing to start on corruption), compacts chains into full
//     frames, retires segments past a retention horizon, and answers
//     windowed histograms-over-time queries (history.go, /fleet/history).
//
// Push is the only ingest road, at every tier: a sender owns its sequence
// numbers and the acknowledgement that advances its delta base, so a
// receiver never initiates a transfer.
//
// Failure model: agents and the aggregator are mutually untrusted over an
// unreliable network. A dead agent simply stops appearing: its last batch
// ages past the staleness horizon and drops out of the merged views — no
// aggregator-side error, no partial merge. A dead aggregator costs the
// agent nothing but a bounded retry queue, which drains oldest-first when
// it returns, and a delta it cannot apply a full push. Corrupt or adversarial input is rejected at decode
// (structural limits, a bin layout that is not this binary's) and ingest
// (Validate), and can never panic the merge path: a core.Snapshot has one
// fixed layout, so whatever decoded can be merged.
package fleet

// ContentType identifies the fleet frame format over HTTP.
const ContentType = "application/x-vscsistats-fleet"
