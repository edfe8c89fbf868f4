// Must not compile. The DiscardedStatusDoesNotCompile test
// (tests/CMakeLists.txt) builds this file with the project's warning flags
// and passes only on the compiler's nodiscard error for each discarded
// result below.
#include "util/status.h"

namespace adict {
namespace {

Status MakeStatus() { return Status::Ok(); }
StatusOr<int> MakeStatusOr() { return 1; }

}  // namespace

void DiscardBoth() {
  MakeStatus();
  MakeStatusOr();
}

}  // namespace adict
