#include "util/lock_rank.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>

namespace adict {

std::string_view LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kPoolForState:
      return "kPoolForState";
    case LockRank::kPoolWorker:
      return "kPoolWorker";
    case LockRank::kPoolWake:
      return "kPoolWake";
    case LockRank::kSamplerWake:
      return "kSamplerWake";
    case LockRank::kFailpointRegistry:
      return "kFailpointRegistry";
    case LockRank::kPoolRegistry:
      return "kPoolRegistry";
    case LockRank::kListenerDrain:
      return "kListenerDrain";
    case LockRank::kColumnVersion:
      return "kColumnVersion";
    case LockRank::kController:
      return "kController";
    case LockRank::kSchedulerDrain:
      return "kSchedulerDrain";
    case LockRank::kSchedulerState:
      return "kSchedulerState";
    case LockRank::kMetricsRegistry:
      return "kMetricsRegistry";
    case LockRank::kTraceBuffers:
      return "kTraceBuffers";
    case LockRank::kDecisionLog:
      return "kDecisionLog";
    case LockRank::kColumnHeatDecay:
      return "kColumnHeatDecay";
    case LockRank::kProfilerState:
      return "kProfilerState";
    case LockRank::kResultCache:
      return "kResultCache";
  }
  return "(unknown rank)";
}

std::string_view LockStratumName(LockStratum stratum) {
  switch (stratum) {
    case LockStratum::kUtil:
      return "util";
    case LockStratum::kStore:
      return "store";
    case LockStratum::kCore:
      return "core";
    case LockStratum::kObs:
      return "obs";
    case LockStratum::kServer:
      return "server";
  }
  return "(unknown stratum)";
}

namespace lockdebug {
namespace {

// The detector's own state uses raw std::mutex by necessity (an annotated,
// ranked Mutex would recurse into the detector); this file and
// thread_annotations.h are the lint's only sanctioned raw-mutex sites.

struct Graph {
  std::mutex mutex;
  // Directed rank-order edges: first.first was held while first.second was
  // acquired. The value is the held stack at the first time the edge was
  // seen — the evidence printed when the reverse order shows up later.
  std::map<std::pair<int, int>, std::string> edges;
  std::function<void(const std::string&)> handler;
};

Graph& TheGraph() {
  static Graph* graph = new Graph();  // never destroyed
  return *graph;
}

std::vector<HeldLock>& ThreadStack() {
  thread_local std::vector<HeldLock> stack;
  return stack;
}

std::string DescribeLock(LockRank rank, const char* name) {
  std::ostringstream out;
  out << "\"" << name << "\" (rank " << static_cast<int>(rank) << ", "
      << LockStratumName(LockRankStratum(rank)) << "/"
      << LockRankName(rank) << ")";
  return out.str();
}

std::string DescribeStack(const std::vector<HeldLock>& stack) {
  std::ostringstream out;
  for (const HeldLock& held : stack) {
    out << "    " << DescribeLock(held.rank, held.name) << "\n";
  }
  return out.str();
}

/// DFS over the recorded edges: is there a path from -> to? Fills `path`
/// with the rank sequence when found.
bool FindPath(const std::map<std::pair<int, int>, std::string>& edges,
              int from, int to, std::set<int>* visited,
              std::vector<int>* path) {
  if (!visited->insert(from).second) return false;
  path->push_back(from);
  if (from == to) return true;
  for (const auto& [edge, stack] : edges) {
    if (edge.first != from) continue;
    if (FindPath(edges, edge.second, to, visited, path)) return true;
  }
  path->pop_back();
  return false;
}

void ReportViolation(const std::string& message) {
  std::function<void(const std::string&)> handler;
  {
    std::lock_guard<std::mutex> lock(TheGraph().mutex);
    handler = TheGraph().handler;
  }
  if (handler) {
    handler(message);
    return;
  }
  std::fprintf(stderr, "%s", message.c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void OnAcquire(LockRank rank, const char* name) {
  std::vector<HeldLock>& stack = ThreadStack();
  if (stack.empty()) {
    stack.push_back({rank, name});
    return;
  }

  const HeldLock* lowest = &stack.front();
  for (const HeldLock& held : stack) {
    if (static_cast<int>(held.rank) < static_cast<int>(lowest->rank)) {
      lowest = &held;
    }
  }

  const bool ok = static_cast<int>(rank) < static_cast<int>(lowest->rank);
  std::string violation;
  if (!ok) {
    std::ostringstream out;
    out << "[adict lock-rank] acquisition order violation: acquiring "
        << DescribeLock(rank, name) << " while holding "
        << DescribeLock(lowest->rank, lowest->name)
        << "; lock ranks must strictly decrease "
           "(see docs/lock_hierarchy.md)\n"
        << "  held by this thread, outermost first:\n"
        << DescribeStack(stack);
    // If the reverse order was already established somewhere, this is a
    // genuine lock-order cycle: print the recorded acquisition as well, so
    // both offending stacks are in the report.
    std::lock_guard<std::mutex> lock(TheGraph().mutex);
    for (const HeldLock& held : stack) {
      std::set<int> visited;
      std::vector<int> path;
      if (!FindPath(TheGraph().edges, static_cast<int>(rank),
                    static_cast<int>(held.rank), &visited, &path)) {
        continue;
      }
      out << "  lock-order cycle: ";
      for (int r : path) {
        out << LockRankName(static_cast<LockRank>(r)) << " -> ";
      }
      out << LockRankName(rank) << "\n";
      if (path.size() < 2) break;  // equal ranks: no recorded edge to show
      const auto edge = TheGraph().edges.find(
          {static_cast<int>(path[0]), static_cast<int>(path[1])});
      if (edge != TheGraph().edges.end()) {
        out << "  the opposite order was first established while "
               "holding:\n"
            << edge->second;
      }
      break;
    }
    violation = out.str();
  } else {
    // Legal acquisition: record held -> new edges with this thread's stack
    // as evidence for any future reverse-order report.
    std::lock_guard<std::mutex> lock(TheGraph().mutex);
    for (const HeldLock& held : stack) {
      const std::pair<int, int> key{static_cast<int>(held.rank),
                                    static_cast<int>(rank)};
      if (TheGraph().edges.find(key) == TheGraph().edges.end()) {
        std::ostringstream evidence;
        evidence << DescribeStack(stack) << "    ... then acquired "
                 << DescribeLock(rank, name) << "\n";
        TheGraph().edges.emplace(key, evidence.str());
      }
    }
  }

  // Push before reporting so a handler that keeps running (tests) leaves
  // the stack balanced for the matching OnRelease.
  stack.push_back({rank, name});
  if (!violation.empty()) ReportViolation(violation);
}

void OnRelease(LockRank rank, const char* name) {
  (void)name;
  std::vector<HeldLock>& stack = ThreadStack();
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->rank == rank) {
      stack.erase(std::next(it).base());
      return;
    }
  }
}

std::vector<HeldLock> HeldByThisThread() { return ThreadStack(); }

void SetViolationHandlerForTest(
    std::function<void(const std::string&)> handler) {
  std::lock_guard<std::mutex> lock(TheGraph().mutex);
  TheGraph().handler = std::move(handler);
}

void ResetForTest() {
  {
    std::lock_guard<std::mutex> lock(TheGraph().mutex);
    TheGraph().edges.clear();
  }
  ThreadStack().clear();
}

}  // namespace lockdebug
}  // namespace adict
