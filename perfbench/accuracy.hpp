// Accuracy of a call set against the generated truth, split into SNPs and
// indels.  The matching rule is the one examples/variant_discovery uses:
// a SNP matches on (contig, position, ref, alt); an indel matches any
// indel on the same contig within kIndelSlack bases.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "formats/vcf.hpp"

namespace gpf::perfbench {

inline constexpr std::int64_t kIndelSlack = 16;

struct ClassScore {
  std::size_t truth = 0;
  std::size_t hits = 0;
  std::size_t calls = 0;
  std::size_t correct_calls = 0;

  double recall() const;
  double precision() const;
};

struct Accuracy {
  ClassScore snp;
  ClassScore indel;
};

Accuracy score_calls(const std::vector<VcfRecord>& truth,
                     const std::vector<VcfRecord>& calls);

}  // namespace gpf::perfbench
