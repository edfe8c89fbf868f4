// Runtime model (paper §4.1): constant time per extract / locate call, per
// tuple during construction and per entry read in order, for every
// dictionary format.
//
// The paper determines these constants once at installation time with
// microbenchmarks averaged over the survey data sets, and found constant
// per-call costs to be as robust as more sophisticated models. Default()
// carries constants measured the same way; CalibrateCostModel() re-measures
// them on the current machine (see bench/calibrate_cost_model).
#ifndef ADICT_CORE_COST_MODEL_H_
#define ADICT_CORE_COST_MODEL_H_

#include <array>
#include <cstdint>

#include "dict/dictionary.h"

namespace adict {

/// Per-method cost constants of one dictionary format, in microseconds.
struct MethodCosts {
  double extract_us = 0;    // one extract(id) call
  double locate_us = 0;     // one locate(str) call
  double construct_us = 0;  // per string during construction
  double scan_us = 0;       // per entry read in order through a cursor
};

/// Cost constants for all formats.
class CostModel {
 public:
  /// Constants measured with bench/calibrate_cost_model on the reference
  /// machine. Magnitudes matter less than ratios between formats; the
  /// compression manager only compares candidate times.
  static CostModel Default();

  const MethodCosts& costs(DictFormat format) const {
    return costs_[static_cast<int>(format)];
  }
  void set_costs(DictFormat format, const MethodCosts& costs) {
    costs_[static_cast<int>(format)] = costs;
  }

 private:
  std::array<MethodCosts, kNumDictFormats> costs_{};
};

/// Options for CalibrateCostModel.
struct CalibrationOptions {
  uint64_t strings_per_dataset = 20000;  // dictionary size per data set
  uint64_t probes = 20000;               // extract/locate calls per format
  uint64_t seed = 42;
};

/// Measures the per-method constants on this machine by running the
/// microbenchmarks of §4.1 over the survey data sets. Expensive (seconds to
/// minutes); use CostModel::Default() unless measuring a new machine.
CostModel CalibrateCostModel(const CalibrationOptions& options);

}  // namespace adict

#endif  // ADICT_CORE_COST_MODEL_H_
