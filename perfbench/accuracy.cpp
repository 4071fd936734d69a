#include "accuracy.hpp"

#include <cstdlib>

namespace gpf::perfbench {
namespace {

bool same_variant(const VcfRecord& call, const VcfRecord& truth) {
  if (truth.is_snp()) {
    return call.contig_id == truth.contig_id && call.pos == truth.pos &&
           call.ref == truth.ref && call.alt == truth.alt;
  }
  return call.contig_id == truth.contig_id &&
         std::llabs(call.pos - truth.pos) <= kIndelSlack && !call.is_snp();
}

double ratio(std::size_t num, std::size_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

double ClassScore::recall() const { return ratio(hits, truth); }
double ClassScore::precision() const { return ratio(correct_calls, calls); }

Accuracy score_calls(const std::vector<VcfRecord>& truth,
                     const std::vector<VcfRecord>& calls) {
  Accuracy a;
  for (const auto& t : truth) {
    ClassScore& s = t.is_snp() ? a.snp : a.indel;
    ++s.truth;
    for (const auto& c : calls) {
      if (same_variant(c, t)) {
        ++s.hits;
        break;
      }
    }
  }
  for (const auto& c : calls) {
    ClassScore& s = c.is_snp() ? a.snp : a.indel;
    ++s.calls;
    for (const auto& t : truth) {
      if (same_variant(c, t)) {
        ++s.correct_calls;
        break;
      }
    }
  }
  return a;
}

}  // namespace gpf::perfbench
