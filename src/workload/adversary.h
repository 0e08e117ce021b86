// Adversarial workload generators: traces built to defeat a fixed
// layout or a fixed cache placement.
//
// Three families:
//
//   BucketAdversary — the Bulánek–Koucký–Saks online-labeling adversary
//     specialized to dense files: every insert lands at the midpoint of
//     the CURRENT minimum gap between live keys, so wherever records
//     have packed tightest, the next key goes exactly there. This is
//     the pattern behind the Omega(log^2 n) lower bound for dense
//     sequential maintenance — it forces maximal SHIFT/redistribution
//     work per command and collapses per-command access headroom.
//
//   DriftRamp — a hotspot window sliding linearly across the key space
//     over the trace. Any static frame split fitted to the window's
//     starting position goes stale.
//
//   HotspotMigration — piecewise-stationary: all traffic concentrates
//     on one shard-sized region for a phase, then jumps to a disjoint
//     region. The worst static pick (all resources on one region) wins
//     phase one and loses every other; even splits waste most frames
//     every phase.
//
// All generators are deterministic under a fixed Rng seed (BKS's insert
// choice is fully deterministic — randomness only orders its deletes
// and background noise), so bench runs and tests replay identically.

#ifndef DSF_WORKLOAD_ADVERSARY_H_
#define DSF_WORKLOAD_ADVERSARY_H_

#include <cstdint>

#include "workload/workload.h"

namespace dsf {

// BKS bucket adversary over (lo, hi): seeds sentinels at lo and hi
// (never emitted), then each insert splits the minimum-width gap >= 2
// between live keys at its midpoint. Every delete_every-th op (0 = no
// deletes) removes a uniformly random live key instead, so the net
// size stays bounded while the dense packing persists. Stops early
// only if every gap closes (num_ops larger than the key range).
Trace BucketAdversary(int64_t num_ops, Key lo, Key hi,
                      int64_t delete_every, Rng& rng);

// Hotspot window of `window` keys sliding linearly from the bottom to
// the top of [1, key_space] across the trace: op i draws uniform from
// the window at position i. read_fraction of ops are Gets of earlier
// keys (cache pressure follows the window); every delete_every-th op
// (0 = none) deletes a random earlier insert to bound net growth.
Trace DriftRamp(int64_t num_ops, Key key_space, Key window,
                double read_fraction, int64_t delete_every, Rng& rng);

// num_phases equal-length phases; phase p confines 90% of its traffic
// to the p-th of num_phases disjoint slices of [1, key_space] (10%
// uniform background). Each phase mixes inserts, Gets of that phase's
// earlier inserts (read_fraction), and bounded deletes.
Trace HotspotMigration(int64_t num_ops, Key key_space, int num_phases,
                       double read_fraction, int64_t delete_every,
                       Rng& rng);

}  // namespace dsf

#endif  // DSF_WORKLOAD_ADVERSARY_H_
