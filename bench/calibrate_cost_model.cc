// Runtime-constant calibration (paper §4.1): measures the per-method cost
// constants of every dictionary format as the average over the survey data
// sets, i.e. the microbenchmarks the paper runs at installation time.
//
// The output can be pasted into CostModel::Default() for this machine.
#include <cstdio>

#include "bench/survey_harness.h"
#include "core/cost_model.h"

using namespace adict;

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  CalibrationOptions options;
  options.strings_per_dataset = bench::EnvOr("ADICT_CALIB_N", 6000);
  options.probes = bench::EnvOr("ADICT_CALIB_PROBES", 6000);

  std::printf("Cost-model calibration (%llu strings/data set, %llu probes)\n\n",
              static_cast<unsigned long long>(options.strings_per_dataset),
              static_cast<unsigned long long>(options.probes));
  const CostModel model = CalibrateCostModel(options);
  std::printf("%-16s %12s %12s %14s %10s\n", "variant", "extract[us]",
              "locate[us]", "construct[us]", "scan[us]");
  for (DictFormat format : AllDictFormats()) {
    const MethodCosts& costs = model.costs(format);
    std::printf("%-16s %12.3f %12.3f %14.3f %10.4f\n",
                std::string(DictFormatName(format)).c_str(), costs.extract_us,
                costs.locate_us, costs.construct_us, costs.scan_us);
  }
  std::printf(
      "\nExpected shape: uncompressed array variants fastest; fixed-width\n"
      "codes (bc, ng) faster than variable-width (hu); rp slowest to build\n"
      "and decode; front coding adds a block-local scan to every access,\n"
      "but scans it for a few nanoseconds an entry.\n");
  return 0;
}
