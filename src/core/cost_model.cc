#include "core/cost_model.h"

#include <string>
#include <vector>

#include "datasets/generators.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace adict {

CostModel CostModel::Default() {
  // Measured with bench/calibrate_cost_model (20k strings per survey data
  // set, 20k probes) on the reference machine; see EXPERIMENTS.md. Values in
  // microseconds: extract, locate, construct, scan. The scan column was
  // measured later, on a 4-vCPU VM, and scaled by 1.70, the median ratio of
  // the other 54 constants to that VM's measurement of them, so it is on
  // the reference machine's scale.
  CostModel model;
  const struct {
    DictFormat format;
    MethodCosts costs;
  } kDefaults[] = {
      {DictFormat::kArray, {0.059, 0.468, 0.054, 0.002}},
      {DictFormat::kArrayBc, {0.215, 3.107, 0.864, 0.170}},
      {DictFormat::kArrayHu, {0.406, 4.756, 0.656, 0.360}},
      {DictFormat::kArrayNg2, {0.229, 3.427, 1.185, 0.207}},
      {DictFormat::kArrayNg3, {0.192, 2.683, 1.949, 0.148}},
      {DictFormat::kArrayRp12, {0.414, 6.041, 26.578, 0.394}},
      {DictFormat::kArrayRp16, {0.421, 5.827, 30.109, 0.390}},
      {DictFormat::kArrayFixed, {0.029, 0.367, 0.026, 0.037}},
      {DictFormat::kFcBlock, {0.080, 0.392, 0.049, 0.010}},
      {DictFormat::kFcBlockBc, {0.944, 2.728, 0.486, 0.104}},
      {DictFormat::kFcBlockHu, {2.176, 4.898, 0.517, 0.274}},
      {DictFormat::kFcBlockNg2, {1.290, 3.553, 0.899, 0.132}},
      {DictFormat::kFcBlockNg3, {1.032, 3.147, 1.624, 0.107}},
      {DictFormat::kFcBlockRp12, {2.722, 6.666, 16.412, 0.313}},
      {DictFormat::kFcBlockRp16, {2.672, 6.762, 19.074, 0.315}},
      {DictFormat::kFcBlockDf, {0.031, 0.401, 0.051, 0.010}},
      {DictFormat::kFcInline, {0.084, 0.408, 0.043, 0.010}},
      {DictFormat::kColumnBc, {0.254, 9.517, 0.762, 0.115}},
  };
  for (const auto& entry : kDefaults) {
    model.set_costs(entry.format, entry.costs);
  }
  return model;
}

CostModel CalibrateCostModel(const CalibrationOptions& options) {
  CostModel model;
  std::vector<std::vector<std::string>> datasets;
  for (std::string_view name : SurveyDatasetNames()) {
    datasets.push_back(GenerateSurveyDataset(name, options.strings_per_dataset,
                                             options.seed));
  }

  for (DictFormat format : AllDictFormats()) {
    double extract_us = 0, locate_us = 0, construct_us = 0, scan_us = 0;
    for (const std::vector<std::string>& sorted : datasets) {
      Rng rng(options.seed);
      Stopwatch watch;
      auto dict = BuildDictionary(format, sorted);
      construct_us += watch.ElapsedMicros() / sorted.size();

      const uint32_t n = dict->size();
      std::string scratch;
      watch.Restart();
      for (uint64_t i = 0; i < options.probes; ++i) {
        scratch.clear();
        dict->ExtractInto(static_cast<uint32_t>(rng.Uniform(n)), &scratch);
      }
      extract_us += watch.ElapsedMicros() / options.probes;

      watch.Restart();
      for (uint64_t i = 0; i < options.probes; ++i) {
        dict->Locate(sorted[rng.Uniform(n)]);
      }
      locate_us += watch.ElapsedMicros() / options.probes;

      // Whole-dictionary scans until at least `probes` entries are read.
      uint64_t scanned = 0, bytes = 0;
      watch.Restart();
      while (scanned < options.probes) {
        dict->Scan(0, n, [&bytes](uint32_t, std::string_view value) {
          bytes += value.size();
        });
        scanned += n;
      }
      scan_us += watch.ElapsedMicros() / static_cast<double>(scanned);
      ADICT_CHECK(bytes > 0);  // keeps the decode observable
    }
    const double d = static_cast<double>(datasets.size());
    model.set_costs(format, {extract_us / d, locate_us / d, construct_us / d,
                             scan_us / d});
  }
  return model;
}

}  // namespace adict
