// Reduction of all per-column factors to the (space, time) plane and the
// dividing-line selection strategies (paper §5.2, §5.4).
//
// Space:  size(d, c) = dict_size(d, c) + columnvector_size(c)
// Time:   time(d)    = #extracts * t_e(d) + #locates * t_l(d)
//                      + #strings * t_c(d)
//         rel_time(d) = time(d) / lifetime(d)
//
// A strategy admits the subset D_f = { d : size(d) <= f(rel_time(d)) } below
// a dividing function f and picks the fastest admitted variant. The global
// trade-off parameter c shifts f; the configuration parameter alpha is
// derived from the paper's boundary condition: in the hypothetical scaling
// where rel_time(d_min) = 1 (the smallest variant would consume the whole
// lifetime), the dividing line passes through the fastest variant.
#ifndef ADICT_CORE_TRADEOFF_H_
#define ADICT_CORE_TRADEOFF_H_

#include <span>
#include <vector>

#include "core/cost_model.h"
#include "core/properties.h"
#include "dict/dictionary.h"

namespace adict {

/// Usage pattern and environment of one column, as traced by the store
/// between two merges (paper Figure 7, "Column" box).
struct ColumnUsage {
  uint64_t num_extracts = 0;
  uint64_t num_locates = 0;
  /// Dictionary entries read in order (Dictionary::Scan, a join's cursor
  /// merge), priced per entry at the format's sequential decode cost.
  uint64_t num_scans = 0;
  /// Time between two merges of this column, i.e. the lifetime of one
  /// dictionary instance, in seconds.
  double lifetime_seconds = 3600.0;
  /// Size of the column's other data structure (the domain-encoded column
  /// vector), which the dictionary size is put in relation to.
  uint64_t column_vector_bytes = 0;
};

/// One dictionary format mapped onto the two decision dimensions.
struct Candidate {
  DictFormat format;
  double size_bytes;  // predicted dictionary size + column vector size
  double rel_time;    // lifetime-normalized runtime spent in the dictionary
};

/// Maps every dictionary format onto (size, rel_time) using the compression
/// models for the size axis and the cost model for the time axis.
std::vector<Candidate> EvaluateCandidates(const DictionaryProperties& props,
                                          const ColumnUsage& usage,
                                          const CostModel& cost_model);

/// The dividing-line families of §5.4.
enum class TradeoffStrategy {
  kConst,  ///< f(t) = (1 + c) * size_min
  kRel,    ///< constant line raised with rel_time(d_min)
  kTilt,   ///< line tilted in favor of faster but bigger variants
};

std::string_view TradeoffStrategyName(TradeoffStrategy strategy);

/// Outcome of one selection, with enough detail to reproduce the paper's
/// Figure 9 (dividing line, included set, smallest and selected variants).
struct SelectionDetails {
  DictFormat selected;
  DictFormat smallest;  // d_min
  DictFormat fastest;   // d_speed
  double alpha = 0;     // derived configuration parameter
  /// Dividing-line value f(rel_time(d)) per candidate, parallel to the
  /// input; candidate i is admitted iff size_bytes <= threshold[i].
  std::vector<double> threshold;
};

/// Applies `strategy` with trade-off parameter `c` to the candidates.
/// `candidates` must be non-empty.
SelectionDetails SelectFormatDetailed(std::span<const Candidate> candidates,
                                      double c, TradeoffStrategy strategy);

/// Convenience wrapper returning only the selected format.
DictFormat SelectFormat(std::span<const Candidate> candidates, double c,
                        TradeoffStrategy strategy);

}  // namespace adict

#endif  // ADICT_CORE_TRADEOFF_H_
