// Input generator for the end-to-end benchmark: simulates one germline
// sample and writes the files the pipeline consumes.
//
//   gpf_perfbench_gen --out DIR --seed N --coverage X
//       --hotspot-fraction F --hotspot-multiplier M
//
// Writes DIR/ref.fa, DIR/reads_1.fastq, DIR/reads_2.fastq, DIR/known.vcf
// (every other truth variant, mimicking dbsnp's partial coverage of an
// individual) and DIR/truth.vcf (the whole truth set, for scoring only).
//
// The donor is the same for every workload: the reference, truth set and
// hot-spot layout (F of the genome's 10 kb windows, at least one) come from
// the constants below, which perfbench/manifest.json records.  --seed draws
// a sequencing run from that donor: fragments, errors and duplicates at
// --coverage everywhere, plus extra fragments that lift the hot windows to
// M times that depth (F = 0 or M <= 1: none).  Keeping the layout fixed
// keeps the workload's shape the same across seeds.  With one toolchain,
// the same arguments always produce the same bytes (std::shuffle is
// library-defined).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/file_io.hpp"
#include "simdata/read_sim.hpp"
#include "simdata/reference_gen.hpp"

using namespace gpf;

namespace {

/// The read simulator's sampling granularity: capture targets select whole
/// windows of this size.
constexpr std::int64_t kWindow = 10'000;

/// The donor every workload shares.
constexpr std::uint64_t kGenomeSeed = 2018;
constexpr std::int64_t kGenomeLength = 200'000;
constexpr int kContigs = 2;
constexpr double kSnpRate = 0.001;
/// Five times simdata's default, so indel metrics rest on ~90 truth indels.
constexpr double kIndelRate = 0.0005;
constexpr double kDuplicateFraction = 0.05;

/// Picks round(fraction * windows) full windows (at least one) from `seed`.
std::vector<BedInterval> hot_windows(const Reference& reference,
                                     double fraction, std::uint64_t seed) {
  std::vector<BedInterval> windows;
  for (std::size_t c = 0; c < reference.contig_count(); ++c) {
    const auto len = static_cast<std::int64_t>(
        reference.contig(static_cast<std::int32_t>(c)).sequence.size());
    for (std::int64_t start = 0; start + kWindow <= len; start += kWindow) {
      windows.push_back(
          {static_cast<std::int32_t>(c), start, start + kWindow, "hot"});
    }
  }
  if (windows.empty()) return windows;
  const auto count = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::llround(fraction * static_cast<double>(windows.size()))),
      1, windows.size());
  Rng rng(seed);
  std::shuffle(windows.begin(), windows.end(), rng);
  windows.resize(count);
  return windows;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return 2;
    }
    args[key.substr(2)] = argv[i + 1];
  }
  // Every flag is required: perfbench/manifest.json is the one place the
  // per-workload values live.
  const char* const flags[] = {"out", "seed", "coverage", "hotspot-fraction",
                               "hotspot-multiplier"};
  for (const auto& [key, value] : args) {
    if (std::find(std::begin(flags), std::end(flags), key) ==
        std::end(flags)) {
      std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
      return 2;
    }
  }
  for (const char* key : flags) {
    if (args.count(key) == 0) {
      std::fprintf(stderr, "missing --%s\n", key);
      return 2;
    }
  }
  const auto num = [&args](const char* key) {
    return std::atof(args.at(key).c_str());
  };
  const std::string out = args["out"];
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);

  simdata::ReadSimSpec reads;
  reads.coverage = num("coverage");
  reads.duplicate_fraction = kDuplicateFraction;
  reads.seed = seed;
  simdata::VariantSpec variants;
  variants.snp_rate = kSnpRate;
  variants.indel_rate = kIndelRate;
  variants.seed = kGenomeSeed + 1;
  simdata::Workload w;
  w.reference = simdata::generate_reference(simdata::ReferenceSpec::genome(
      kGenomeLength, kContigs, kGenomeSeed));
  w.truth = simdata::spawn_variants(w.reference, variants);
  const simdata::Donor donor(w.reference, w.truth);
  w.sample = simdata::simulate_reads(w.reference, donor, reads);

  const double hot_fraction = num("hotspot-fraction");
  const double hot_multiplier = num("hotspot-multiplier");
  simdata::ReadSimSpec hot = reads;
  if (hot_fraction > 0.0 && hot_multiplier > 1.0) {
    hot.targets = hot_windows(w.reference, hot_fraction, kGenomeSeed);
  }
  if (!hot.targets.empty()) {
    hot.on_target_fraction = 1.0;
    // simulate_reads spreads coverage * genome length over the targets.
    hot.coverage = reads.coverage * (hot_multiplier - 1.0) *
                   static_cast<double>(hot.targets.size() * kWindow) /
                   static_cast<double>(w.reference.total_length());
    hot.seed = seed ^ 0x5bd1e995ULL;
    for (auto& p : simdata::simulate_reads(w.reference, donor, hot).pairs) {
      // Distinct names: both runs number their fragments from zero.
      p.first.name.insert(0, "hot:");
      p.second.name.insert(0, "hot:");
      w.sample.pairs.push_back(std::move(p));
    }
    // Sequencers emit fragments in no genomic order.
    Rng order(seed);
    std::shuffle(w.sample.pairs.begin(), w.sample.pairs.end(), order);
  }

  VcfHeader header;
  for (const auto& c : w.reference.contigs()) {
    header.contigs.push_back(
        {c.name, static_cast<std::int64_t>(c.sequence.size())});
  }
  std::vector<VcfRecord> known;
  for (std::size_t i = 0; i < w.truth.size(); i += 2) {
    known.push_back(w.truth[i]);
  }
  try {
    core::save_fasta_file(out + "/ref.fa", w.reference);
    core::save_fastq_pair_files(out + "/reads_1.fastq",
                                out + "/reads_2.fastq", w.sample.pairs);
    core::save_vcf_file(out + "/known.vcf", header, known);
    core::save_vcf_file(out + "/truth.vcf", header, w.truth);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  std::printf("generated %llu bases, %zu pairs, %zu truth variants\n",
              static_cast<unsigned long long>(w.reference.total_length()),
              w.sample.pairs.size(), w.truth.size());
  return 0;
}
