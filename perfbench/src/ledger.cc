#include "ledger.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <map>

#include "obs/obs.h"
#include "server/protocol.h"
#include "server/query_server.h"
#include "util/net.h"

using namespace adict;

namespace perfbench {

namespace {

constexpr int kReps = 5;

/// Dictionaries the TPC-H LIKE predicates scan (Q2, Q9, Q13, Q16).
const std::pair<const char*, const char*> kLikeScanned[] = {
    {"part", "P_TYPE"},
    {"part", "P_NAME"},
    {"orders", "O_COMMENT"},
    {"supplier", "S_COMMENT"},
};

volatile uint64_t g_sink = 0;

/// Mean nanoseconds of `fn(i)` over one pass of i in [0, n).
template <typename Fn>
double NsPerPass(size_t n, Fn fn) {
  uint64_t sink = 0;
  const int64_t start = NowNs();
  for (size_t i = 0; i < n; ++i) sink += fn(i);
  g_sink = g_sink + sink;
  return static_cast<double>(NowNs() - start) /
         static_cast<double>(n == 0 ? 1 : n);
}

/// Median over `kReps` passes (after a warm-up pass) of NsPerPass.
template <typename Fn>
double NsPerOp(size_t n, Fn fn) {
  NsPerPass(n, fn);
  std::vector<double> reps;
  for (int rep = 0; rep < kReps; ++rep) reps.push_back(NsPerPass(n, fn));
  return Median(reps);
}

int ConnectBlocking(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

obs::Histogram& ServerRequestHistogram() {
  return *obs::Metrics().GetHistogram(
      "server.request.us", {}, "us",
      "query-server request latency (decode through response)");
}

double HistogramDeltaQuantile(const obs::Histogram& histogram,
                              const std::vector<uint64_t>& before, double q) {
  const std::vector<uint64_t> now = histogram.bucket_counts();
  const std::vector<double>& bounds = histogram.bounds();
  uint64_t total = 0;
  for (size_t i = 0; i < now.size(); ++i) {
    total += now[i] - (i < before.size() ? before[i] : 0);
  }
  if (total == 0) return 0;
  const double target = q * static_cast<double>(total);
  double cumulative = 0;
  for (size_t i = 0; i < now.size(); ++i) {
    const double in_bucket =
        static_cast<double>(now[i] - (i < before.size() ? before[i] : 0));
    if (in_bucket > 0 && cumulative + in_bucket >= target) {
      const double lower = i == 0 ? 0 : bounds[i - 1];
      if (i >= bounds.size()) return bounds.back();
      return lower + (bounds[i] - lower) * (target - cumulative) / in_bucket;
    }
    cumulative += in_bucket;
  }
  return bounds.back();
}

LedgerServer RunLedger(const TpchDatabase& db,
                       const std::vector<ServedColumn>& columns,
                       const std::vector<PointOp>& ops, Outcome* out) {
  std::map<std::string, const Table*> tables;
  for (const Table* table : db.tables()) tables[table->name()] = table;

  // Plain values of every op (the extracted or the located string).
  const std::vector<std::string> values = OpValues(columns, ops);
  std::vector<size_t> extracts, locates;
  for (size_t i = 0; i < ops.size(); ++i) {
    (ops[i].locate ? locates : extracts).push_back(i);
  }
  auto column_of = [&](size_t i) -> const StringColumn& {
    return *columns[ops[i].column].snapshot;
  };
  std::string scratch;
  auto extract_dict = [&](size_t k) {
    const size_t i = extracts[k];
    scratch.clear();
    column_of(i).dictionary().ExtractInto(ops[i].id, &scratch);
    return scratch.size();
  };
  auto extract_column = [&](size_t k) {
    const size_t i = extracts[k];
    scratch.clear();
    column_of(i).GetValueInto(ops[i].row, &scratch);
    return scratch.size();
  };
  auto locate_dict = [&](size_t k) {
    const size_t i = locates[k];
    return static_cast<size_t>(column_of(i).dictionary().Locate(values[i]).id);
  };
  auto locate_column = [&](size_t k) {
    const size_t i = locates[k];
    return static_cast<size_t>(column_of(i).Locate(values[i]).id);
  };

  // The layers alternate inside every repetition (after one warm-up
  // round), so cache warmth and machine drift hit them alike.
  const bool obs_was_enabled = obs::Enabled();
  std::vector<double> dict_extract_reps, dict_locate_reps, off_extract_reps,
      off_locate_reps, on_extract_reps;
  for (int rep = 0; rep <= kReps; ++rep) {
    const double dict_extract = NsPerPass(extracts.size(), extract_dict);
    const double dict_locate = NsPerPass(locates.size(), locate_dict);
    obs::SetEnabled(false);
    const double off_extract = NsPerPass(extracts.size(), extract_column);
    const double off_locate = NsPerPass(locates.size(), locate_column);
    obs::SetEnabled(true);
    const double on_extract = NsPerPass(extracts.size(), extract_column);
    if (rep == 0) continue;  // warm-up
    dict_extract_reps.push_back(dict_extract);
    dict_locate_reps.push_back(dict_locate);
    off_extract_reps.push_back(off_extract);
    off_locate_reps.push_back(off_locate);
    on_extract_reps.push_back(on_extract);
  }
  obs::SetEnabled(obs_was_enabled);
  const double dict_extract = Median(dict_extract_reps);
  const double dict_locate = Median(dict_locate_reps);
  const double column_extract_off = Median(off_extract_reps);
  const double column_locate_off = Median(off_locate_reps);
  const double column_extract_on = Median(on_extract_reps);

  const double snapshot_ns = NsPerOp(ops.size(), [&](size_t i) {
    const ServedColumn& served = columns[ops[i].column];
    return static_cast<size_t>(
        tables.at(served.table)->SnapshotStrings(served.column)->num_rows());
  });

  // Scan cost per entry over the LIKE-scanned dictionaries.
  double scan_ns = 0;
  {
    std::vector<double> reps;
    for (int rep = 0; rep < kReps; ++rep) {
      uint64_t entries = 0, bytes = 0;
      const int64_t start = NowNs();
      for (const auto& [table, column] : kLikeScanned) {
        const auto snap = tables.at(table)->SnapshotStrings(column);
        const Dictionary& dict = snap->dictionary();
        dict.Scan(0, dict.size(), [&bytes](uint32_t, std::string_view v) {
          bytes += v.size();
        });
        entries += dict.size();
      }
      reps.push_back(static_cast<double>(NowNs() - start) /
                     static_cast<double>(entries == 0 ? 1 : entries));
      g_sink = g_sink + bytes;
    }
    scan_ns = Median(reps);
  }

  // Protocol codec, both directions, per request.
  std::vector<Request> requests(ops.size());
  std::vector<QueryResult> results(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const ServedColumn& served = columns[ops[i].column];
    Request& r = requests[i];
    r.request_id = i + 1;
    r.kind = ops[i].locate ? QueryKind::kLocate : QueryKind::kExtract;
    r.table = served.table;
    r.column = served.column;
    r.row = ops[i].row;
    if (ops[i].locate) r.value = values[i];
    if (ops[i].locate) {
      results[i].column_names = {"id", "found"};
      results[i].AddRow({Cell(static_cast<uint64_t>(ops[i].id)), "1"});
    } else {
      results[i].column_names = {"value"};
      results[i].AddRow({values[i]});
    }
  }
  const double codec_ns = NsPerOp(ops.size(), [&](size_t i) {
    const std::vector<uint8_t> frame = EncodeRequest(requests[i]);
    const StatusOr<Request> decoded = DecodeRequestBody(
        std::span<const uint8_t>(frame).subspan(sizeof(uint32_t)));
    const std::vector<uint8_t> payload = EncodeQueryResult(results[i]);
    const std::vector<uint8_t> response =
        EncodeResponseFromPayload(requests[i].request_id, false, payload);
    const StatusOr<Response> back = DecodeResponseBody(
        std::span<const uint8_t>(response).subspan(sizeof(uint32_t)));
    return static_cast<size_t>(decoded.ok() && back.ok());
  });

  // The same requests in process (pin + accessor) and over the wire.
  std::vector<double> direct_us;
  for (size_t i = 0; i < ops.size(); ++i) {
    const ServedColumn& served = columns[ops[i].column];
    const int64_t start = NowNs();
    const auto snap = tables.at(served.table)->SnapshotStrings(served.column);
    if (ops[i].locate) {
      g_sink = g_sink + snap->Locate(values[i]).id;
    } else {
      g_sink = g_sink + snap->GetValue(ops[i].row).size();
    }
    direct_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }

  LedgerServer ledger_server;
  std::vector<double> roundtrip_us;
  uint64_t failed = 0, wrong = 0;
  {
    QueryServer server;
    server.ServeTpch(&db);
    const std::vector<uint64_t> before =
        ServerRequestHistogram().bucket_counts();
    const int fd = server.Start().ok() ? ConnectBlocking(server.port()) : -1;
    FixedSource source(columns, ops, values, /*plant_wrong_answer=*/false);
    std::vector<uint8_t> frame, body;
    for (size_t i = 0; i < ops.size(); ++i) {
      const uint64_t seq = i + 1;
      frame.clear();
      source.Encode(seq, &frame);
      const int64_t start = NowNs();
      uint8_t prefix[sizeof(uint32_t)];
      uint32_t length = 0;
      bool ok =
          fd >= 0 &&
          SendAll(fd, std::string_view(reinterpret_cast<char*>(frame.data()),
                                       frame.size())) &&
          RecvExact(fd, prefix, sizeof(prefix), nullptr) == RecvResult::kOk;
      if (ok) {
        std::memcpy(&length, prefix, sizeof(length));
        body.resize(length);
        ok = length >= 10 &&
             RecvExact(fd, body.data(), length, nullptr) == RecvResult::kOk;
      }
      roundtrip_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
      if (!ok || body[8] != 0) {
        ++failed;
      } else if (!source.Check(seq, std::span<const uint8_t>(body).subspan(10))) {
        ++wrong;
      }
    }
    if (fd >= 0) ::close(fd);
    server.Stop();
    ledger_server.cache = server.cache().stats();
    ledger_server.rejected = server.stats().rejected_requests +
                             server.stats().rejected_connections;
    ledger_server.in_server_p99_us =
        HistogramDeltaQuantile(ServerRequestHistogram(), before, 0.99);
  }
  out->Count(ops.size(), failed, wrong);

  out->AddLayer("dict.extract_ns", dict_extract, "ns");
  out->AddLayer("dict.locate_ns", dict_locate, "ns");
  out->AddLayer("dict.scan_ns_per_entry", scan_ns, "ns");
  out->AddLayer("store.extract_over_dict_ns",
                column_extract_off - dict_extract, "ns");
  out->AddLayer("store.locate_over_dict_ns", column_locate_off - dict_locate,
                "ns");
  out->AddLayer("obs.column_overhead_ns",
                column_extract_on - column_extract_off, "ns");
  out->AddLayer("store.snapshot_ns", snapshot_ns, "ns");
  out->AddLayer("server.codec_ns", codec_ns, "ns");
  out->AddLayer("server.over_direct_us",
                Median(roundtrip_us) - Median(direct_us), "us");
  out->info.AddNumber("ledger.ops", static_cast<double>(ops.size()))
      .AddNumber("ledger.direct_p50_us", Median(direct_us))
      .AddNumber("ledger.roundtrip_p50_us", Median(roundtrip_us));
  return ledger_server;
}

}  // namespace perfbench
