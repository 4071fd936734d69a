// Layer replay: a single-threaded pass over one workload's inputs that
// calls the library's public layer functions one by one — FM index,
// seeding, candidate search, pair alignment, the SAM record codec, the
// cleaner stages and the HaplotypeCaller's parts — each wrapped in a span
// recorded here, on the benchmark's own timeline.  Per-layer times sum the
// call spans, which never nest inside one another.  Inputs are fixed by the workload seed, so the
// counts (mapped reads, realigned reads, active regions, pair-HMM cells)
// repeat exactly for a given seed.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/trace.hpp"
#include "formats/fasta.hpp"
#include "formats/fastq.hpp"
#include "formats/vcf.hpp"

namespace gpf::perfbench {

/// Trace process id the replay's spans are filed under (0 is the measured
/// pipeline run).
inline constexpr std::uint32_t kReplayPid = 2;

struct ReplayResult {
  /// Per-layer metrics keyed by their benchmark names ("align.fm_seed_s").
  std::map<std::string, double> metrics;
  std::vector<trace::Span> spans;
};

/// Replays every layer over the inputs.  Throws std::runtime_error when a
/// layer's output fails its check (e.g. a codec round trip mismatch).
ReplayResult replay_layers(const Reference& reference,
                           const std::vector<FastqPair>& pairs,
                           const std::vector<VcfRecord>& known_sites);

}  // namespace gpf::perfbench
