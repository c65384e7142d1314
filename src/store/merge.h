#ifndef WSD_STORE_MERGE_H_
#define WSD_STORE_MERGE_H_

#include <string>
#include <vector>

#include "extract/scan_pipeline.h"
#include "store/snapshot.h"
#include "util/status.h"
#include "util/statusor.h"

namespace wsd {

/// Rewrites `result` into canonical snapshot form: hosts sorted by name
/// and wall_seconds zeroed. Host names are unique by construction in the
/// synthetic web, so name order is a total order; wall time is the one
/// nondeterministic stats field. Shard scans cannot reconstruct the
/// monolithic site-id order (they only see their own slice), so this is
/// the form in which sharded and monolithic snapshots are byte-comparable
/// — `wsdctl scan --shard` and `--canonical` both emit it, and merging
/// always produces it. Returns InvalidArgument on a duplicate host name
/// (order would then not be total).
[[nodiscard]] Status CanonicalizeScanResult(ScanResult* result);

/// Combines per-shard snapshots into the single snapshot a monolithic
/// scan of the same corpus would have produced (in canonical form, bit
/// for bit). Validation is strict and the call fails closed:
///   - all inputs must agree on (domain, attr, num_entities, seed,
///     scale_bits);
///   - the shard slots must be exactly {0..n-1} of a shard_count equal to
///     the number of inputs — no missing, duplicate or foreign shards;
///   - every host must hash into its shard's slot (Fnv1a64(host) % n),
///     and no host may appear twice.
/// Stats are summed field-wise (wall_seconds is zeroed — canonical form),
/// hosts are concatenated and re-sorted by name, and the output meta is
/// the common provenance as shard 0 of 1. Counted in wsd.store.merges /
/// merge_inputs / merge_hosts.
[[nodiscard]] StatusOr<ParsedSnapshot> MergeSnapshots(
    std::vector<ParsedSnapshot> shards);

/// Loads every input snapshot (mmap fast path), merges them, and
/// atomically writes the merged aligned snapshot to `out_path`. Any
/// validation or I/O failure leaves no partial output file behind.
[[nodiscard]] Status MergeSnapshotFiles(const std::vector<std::string>& inputs,
                                        const std::string& out_path);

}  // namespace wsd

#endif  // WSD_STORE_MERGE_H_
