#include "replay.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "align/bwamem.hpp"
#include "align/fm_index.hpp"
#include "caller/active_region.hpp"
#include "caller/assembler.hpp"
#include "caller/haplotype_caller.hpp"
#include "caller/pairhmm.hpp"
#include "cleaner/bqsr.hpp"
#include "cleaner/indel_realign.hpp"
#include "cleaner/markdup.hpp"
#include "cleaner/sorter.hpp"
#include "compress/record_codec.hpp"
#include "formats/sam.hpp"

namespace gpf::perfbench {
namespace {

/// Pairs (or records) timed under one span: coarse enough that the trace
/// stays small, fine enough that Perfetto shows progress.
constexpr std::size_t kBatch = 1024;

/// Spans on the replay's own timeline (pid kReplayPid, one track), stamped
/// with the global recorder's clock so they line up with pipeline spans.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, trace::SpanKind kind)
        : log_(log), name_(std::move(name)), kind_(kind),
          start_us_(trace::TraceRecorder::global().now_us()) {}
    ~Scope() {
      trace::Span s;
      s.name = std::move(name_);
      s.kind = kind_;
      s.start_us = start_us_;
      s.dur_us = trace::TraceRecorder::global().now_us() - start_us_;
      s.pid = kReplayPid;
      // Call spans never nest, so a call's self time is its duration.
      if (kind_ == trace::SpanKind::kTask) {
        log_.call_seconds[s.name] += s.dur_us * 1e-6;
      }
      log_.spans.push_back(std::move(s));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::string name_;
    trace::SpanKind kind_;
    double start_us_;
  };

  /// A layer (parent span) and one timed call batch inside it.
  Scope layer(std::string name) {
    return Scope(*this, std::move(name), trace::SpanKind::kStage);
  }
  Scope call(std::string name) {
    return Scope(*this, std::move(name), trace::SpanKind::kTask);
  }

  std::vector<trace::Span> spans;
  /// Summed duration of the call spans, per name.
  std::map<std::string, double> call_seconds;
};

std::string reverse_complement(std::string_view seq) {
  std::string out(seq.rbegin(), seq.rend());
  for (char& c : out) {
    switch (c) {
      case 'A': c = 'T'; break;
      case 'C': c = 'G'; break;
      case 'G': c = 'C'; break;
      case 'T': c = 'A'; break;
      default: c = 'N'; break;
    }
  }
  return out;
}

/// Backward-extends every seed the aligner samples from `seq`; returns the
/// summed SA-interval sizes so the work cannot be optimised away.
std::uint64_t extend_seeds(const align::FmIndex& index, std::string_view seq,
                           const align::AlignerOptions& options) {
  std::uint64_t rows = 0;
  const int len = static_cast<int>(seq.size());
  for (int off = 0; off + options.seed_length <= len;
       off += options.seed_stride) {
    align::SaInterval iv = index.whole();
    for (int i = off + options.seed_length - 1; i >= off && !iv.empty(); --i) {
      iv = index.extend(iv, seq[static_cast<std::size_t>(i)]);
    }
    rows += iv.size();
  }
  return rows;
}

double seconds_of(const SpanLog& log, const std::string& name) {
  const auto it = log.call_seconds.find(name);
  return it == log.call_seconds.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

ReplayResult replay_layers(const Reference& reference,
                           const std::vector<FastqPair>& pairs,
                           const std::vector<VcfRecord>& known_sites) {
  SpanLog log;
  ReplayResult result;
  auto& m = result.metrics;

  // --- align: index build, seeding, candidate search, pair alignment ------
  std::vector<SamRecord> records;
  records.reserve(pairs.size() * 2);
  {
    auto layer = log.layer("align");
    std::unique_ptr<align::FmIndex> index;
    {
      auto span = log.call("align.fm_build");
      index = std::make_unique<align::FmIndex>(reference);
    }
    const align::ReadAligner aligner(*index);
    const align::AlignerOptions& options = aligner.options();
    std::uint64_t seed_rows = 0;
    for (std::size_t b = 0; b < pairs.size(); b += kBatch) {
      const std::size_t e = std::min(pairs.size(), b + kBatch);
      std::vector<std::string> rc;
      rc.reserve(2 * (e - b));
      for (std::size_t i = b; i < e; ++i) {
        rc.push_back(reverse_complement(pairs[i].first.sequence));
        rc.push_back(reverse_complement(pairs[i].second.sequence));
      }
      {
        auto span = log.call("align.fm_seed");
        for (std::size_t i = b; i < e; ++i) {
          seed_rows += extend_seeds(*index, pairs[i].first.sequence, options);
          seed_rows += extend_seeds(*index, pairs[i].second.sequence, options);
        }
        for (const auto& s : rc) seed_rows += extend_seeds(*index, s, options);
      }
      {
        auto span = log.call("align.candidates");
        for (std::size_t i = b; i < e; ++i) {
          seed_rows += aligner.candidates(pairs[i].first.sequence).size();
          seed_rows += aligner.candidates(pairs[i].second.sequence).size();
        }
      }
      {
        auto span = log.call("align.align_pair");
        for (std::size_t i = b; i < e; ++i) {
          auto [r1, r2] = aligner.align_pair(pairs[i]);
          records.push_back(std::move(r1));
          records.push_back(std::move(r2));
        }
      }
    }
    if (seed_rows == 0 && !pairs.empty()) {
      throw std::runtime_error("replay: no read seeded against the index");
    }
  }
  const auto mapped = static_cast<double>(
      std::count_if(records.begin(), records.end(),
                     [](const SamRecord& r) { return !r.is_unmapped(); }));
  m["align.mapped_frac"] = ratio(mapped, static_cast<double>(records.size()));

  // --- compress: the shuffle's SAM record codec round trip ---------------
  double live_mb = 0.0;
  {
    auto layer = log.layer("compress");
    SamHeader header;
    for (const auto& c : reference.contigs()) {
      header.contigs.push_back(
          {c.name, static_cast<std::int64_t>(c.sequence.size())});
    }
    const double text_bytes =
        static_cast<double>(write_sam(header, records).size());
    const std::span<const SamRecord> all(records);
    double encoded_bytes = 0.0;
    for (std::size_t b = 0; b < records.size(); b += kBatch) {
      const auto batch = all.subspan(b, std::min(kBatch, records.size() - b));
      std::vector<std::uint8_t> bytes;
      {
        auto span = log.call("compress.sam_encode");
        bytes = encode_sam_batch(batch, Codec::kGpf);
      }
      std::vector<SamRecord> decoded;
      {
        auto span = log.call("compress.sam_decode");
        decoded = decode_sam_batch(bytes, Codec::kGpf);
      }
      if (!std::equal(decoded.begin(), decoded.end(), batch.begin(),
                      batch.end())) {
        throw std::runtime_error("replay: SAM codec round trip mismatch");
      }
      live_mb += static_cast<double>(live_batch_size(batch)) / 1e6;
      encoded_bytes += static_cast<double>(bytes.size());
    }
    m["compress.sam_ratio"] = ratio(text_bytes, encoded_bytes);
  }

  // --- cleaner: sort, markdup, realign targets + realign, BQSR -----------
  {
    auto layer = log.layer("cleaner");
    {
      auto span = log.call("cleaner.sort");
      cleaner::coordinate_sort(records);
    }
    {
      auto span = log.call("cleaner.markdup");
      cleaner::mark_duplicates(records);
    }
    const cleaner::RealignOptions options;
    std::vector<cleaner::RealignTarget> targets;
    {
      auto span = log.call("cleaner.realign_targets");
      targets = cleaner::find_realign_targets(records, known_sites, options);
    }
    cleaner::RealignStats realign;
    {
      auto span = log.call("cleaner.realign");
      realign = cleaner::realign_reads(records, reference, targets, options);
    }
    // Useful outcomes over attempts: reads whose realignment beat their
    // original alignment, among those overlapping a target.
    m["cleaner.realigned_frac"] =
        ratio(static_cast<double>(realign.reads_realigned),
              static_cast<double>(realign.reads_considered));
    const cleaner::KnownSites known(known_sites);
    cleaner::RecalTable table;
    {
      auto span = log.call("cleaner.bqsr_collect");
      table = cleaner::collect_covariates(records, reference, known);
    }
    {
      auto span = log.call("cleaner.bqsr_apply");
      cleaner::apply_recalibration(records, table);
    }
  }

  // --- caller: active regions, whole-region calls, assembly, pair-HMM ----
  {
    auto layer = log.layer("caller");
    cleaner::coordinate_sort(records);
    const caller::CallerOptions options;
    std::vector<caller::ActiveRegion> regions;
    {
      auto span = log.call("caller.active_region");
      regions = caller::find_active_regions(records, reference,
                                            options.active_region);
    }
    m["caller.active_regions"] = static_cast<double>(regions.size());
    std::vector<double> region_ms;
    region_ms.reserve(regions.size());
    double pairhmm_cells = 0.0;
    for (const auto& region : regions) {
      {
        auto span = log.call("caller.call_region");
        const double t0 = trace::TraceRecorder::global().now_us();
        caller::call_region(region, records, reference, options);
        region_ms.push_back(
            (trace::TraceRecorder::global().now_us() - t0) * 1e-3);
      }
      // The same region again, part by part, as call_region prepares it:
      // the bounded read set and the reference window.
      std::vector<const SamRecord*> reads;
      for (const std::size_t idx : region.read_indices) {
        if (reads.size() >= options.max_reads_per_region) break;
        reads.push_back(&records[idx]);
      }
      const std::string_view window =
          reference.slice(region.contig_id, region.start, region.size());
      if (reads.empty() || window.empty()) continue;
      std::vector<std::string_view> seqs;
      seqs.reserve(reads.size());
      for (const auto* r : reads) seqs.push_back(r->sequence);
      caller::AssemblyResult assembly;
      {
        auto span = log.call("caller.assembly");
        assembly = caller::assemble_haplotypes(seqs, window, options.assembler);
      }
      if (assembly.haplotypes.size() < 2) continue;
      auto span = log.call("caller.pairhmm");
      caller::PairHmm hmm(options.pairhmm);
      for (const auto* r : reads) {
        for (const auto& hap : assembly.haplotypes) {
          hmm.log10_likelihood(r->sequence, r->quality, hap);
          pairhmm_cells += static_cast<double>(r->sequence.size()) *
                           static_cast<double>(hap.size());
        }
      }
    }
    m["caller.pairhmm_cells"] = pairhmm_cells;
    std::sort(region_ms.begin(), region_ms.end());
    m["caller.region_p99_ms"] =
        region_ms.empty()
            ? 0.0
            : region_ms[std::min(region_ms.size() - 1,
                                 static_cast<std::size_t>(
                                     0.99 * static_cast<double>(
                                                region_ms.size())))];
  }

  for (const char* name :
       {"align.fm_build", "align.fm_seed", "align.candidates",
        "align.align_pair", "cleaner.sort", "cleaner.markdup",
        "cleaner.realign_targets", "cleaner.realign", "cleaner.bqsr_collect",
        "cleaner.bqsr_apply", "caller.active_region", "caller.call_region",
        "caller.assembly", "caller.pairhmm"}) {
    m[std::string(name) + "_s"] = seconds_of(log, name);
  }
  m["compress.sam_encode_mb_per_s"] =
      ratio(live_mb, seconds_of(log, "compress.sam_encode"));
  m["compress.sam_decode_mb_per_s"] =
      ratio(live_mb, seconds_of(log, "compress.sam_decode"));
  result.spans = std::move(log.spans);
  return result;
}

}  // namespace gpf::perfbench
