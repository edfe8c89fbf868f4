#include "obs/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace adict {
namespace obs {
namespace {

void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, std::min<size_t>(n, sizeof(buf) - 1));
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char ch : s) {
    switch (ch) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          Appendf(out, "\\u%04x", ch);
        } else {
          out->push_back(ch);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

std::string MetricsToText(const MetricsRegistry& registry) {
  std::string out;
  out.append("metrics:\n");
  for (const MetricsRegistry::Entry* entry : registry.Entries()) {
    switch (entry->type) {
      case MetricType::kCounter:
        Appendf(&out, "  %-32s counter    %12" PRIu64 " %s\n",
                entry->name.c_str(), entry->counter->value(),
                entry->unit.c_str());
        break;
      case MetricType::kGauge:
        Appendf(&out, "  %-32s gauge      %12.4f %s\n", entry->name.c_str(),
                entry->gauge->value(), entry->unit.c_str());
        break;
      case MetricType::kHistogram: {
        const Histogram& h = *entry->histogram;
        Appendf(&out,
                "  %-32s histogram  %12" PRIu64 " obs, mean %.1f %s:",
                entry->name.c_str(), h.count(), h.mean(), entry->unit.c_str());
        const std::vector<uint64_t> counts = h.bucket_counts();
        for (size_t i = 0; i < counts.size(); ++i) {
          if (counts[i] == 0) continue;
          if (i < h.bounds().size()) {
            Appendf(&out, " <=%g:%" PRIu64, h.bounds()[i], counts[i]);
          } else {
            Appendf(&out, " inf:%" PRIu64, counts[i]);
          }
        }
        out.push_back('\n');
        break;
      }
    }
  }
  return out;
}

std::string MetricsToJson(const MetricsRegistry& registry) {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const MetricsRegistry::Entry* entry : registry.Entries()) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"name\":");
    AppendJsonString(&out, entry->name);
    out.append(",\"type\":");
    AppendJsonString(&out, MetricTypeName(entry->type));
    out.append(",\"unit\":");
    AppendJsonString(&out, entry->unit);
    switch (entry->type) {
      case MetricType::kCounter:
        Appendf(&out, ",\"value\":%" PRIu64, entry->counter->value());
        break;
      case MetricType::kGauge:
        Appendf(&out, ",\"value\":%.17g", entry->gauge->value());
        break;
      case MetricType::kHistogram: {
        const Histogram& h = *entry->histogram;
        Appendf(&out, ",\"count\":%" PRIu64 ",\"sum\":%.17g,\"buckets\":[",
                h.count(), h.sum());
        const std::vector<uint64_t> counts = h.bucket_counts();
        for (size_t i = 0; i < counts.size(); ++i) {
          if (i > 0) out.push_back(',');
          Appendf(&out, "%" PRIu64, counts[i]);
        }
        out.append("],\"bounds\":[");
        for (size_t i = 0; i < h.bounds().size(); ++i) {
          if (i > 0) out.push_back(',');
          Appendf(&out, "%g", h.bounds()[i]);
        }
        out.push_back(']');
        break;
      }
    }
    out.push_back('}');
  }
  out.append("]}");
  return out;
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:] with a non-digit first char.
std::string SanitizePrometheusName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char ch : name) {
    const bool valid = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                       (ch >= '0' && ch <= '9') || ch == '_' || ch == ':';
    out.push_back(valid ? ch : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

// HELP text: the exposition format escapes backslash and newline.
void AppendPrometheusHelp(std::string* out, std::string_view help) {
  for (char ch : help) {
    if (ch == '\\') {
      out->append("\\\\");
    } else if (ch == '\n') {
      out->append("\\n");
    } else {
      out->push_back(ch);
    }
  }
}

}  // namespace

std::string ExportPrometheusText(const MetricsRegistry& registry) {
  std::string out;
  for (const MetricsRegistry::Entry* entry : registry.Entries()) {
    const std::string name = SanitizePrometheusName(entry->name);
    if (!entry->help.empty()) {
      Appendf(&out, "# HELP %s ", name.c_str());
      AppendPrometheusHelp(&out, entry->help);
      out.push_back('\n');
    }
    // Constant labels are fixed at registration (Entry::labels) and apply
    // to scalar samples; histogram series already carry their `le` label.
    std::string labeled = name;
    if (!entry->labels.empty() && entry->type != MetricType::kHistogram) {
      labeled += "{" + entry->labels + "}";
    }
    switch (entry->type) {
      case MetricType::kCounter:
        Appendf(&out, "# TYPE %s counter\n", name.c_str());
        Appendf(&out, "%s %" PRIu64 "\n", labeled.c_str(),
                entry->counter->value());
        break;
      case MetricType::kGauge:
        Appendf(&out, "# TYPE %s gauge\n", name.c_str());
        Appendf(&out, "%s %.17g\n", labeled.c_str(), entry->gauge->value());
        break;
      case MetricType::kHistogram: {
        const Histogram& h = *entry->histogram;
        Appendf(&out, "# TYPE %s histogram\n", name.c_str());
        const std::vector<uint64_t> counts = h.bucket_counts();
        uint64_t cumulative = 0;
        for (size_t i = 0; i < h.bounds().size(); ++i) {
          cumulative += counts[i];
          Appendf(&out, "%s_bucket{le=\"%g\"} %" PRIu64 "\n", name.c_str(),
                  h.bounds()[i], cumulative);
        }
        cumulative += counts.empty() ? 0 : counts.back();
        Appendf(&out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", name.c_str(),
                cumulative);
        // _count comes from the same counts snapshot as the buckets so one
        // scrape always satisfies the +Inf bucket == _count invariant even
        // under concurrent Observe(); h.count() would be a separate atomic
        // read that can lag or lead. _sum is still its own read and may be
        // slightly skewed relative to the counts — Prometheus tolerates
        // that, but not an inconsistent +Inf/_count pair.
        Appendf(&out, "%s_sum %.17g\n", name.c_str(), h.sum());
        Appendf(&out, "%s_count %" PRIu64 "\n", name.c_str(), cumulative);
        break;
      }
    }
  }
  return out;
}

std::string PredictionAccuracyToText(const PredictionAccuracy& accuracy) {
  std::string out;
  Appendf(&out,
          "prediction accuracy: %" PRIu64
          " predictions, mean rel error %.1f%%, max %.1f%%, within 8%%: "
          "%.0f%%\n",
          accuracy.num_predictions, 100.0 * accuracy.mean_abs_rel_error(),
          100.0 * accuracy.max_abs_rel_error,
          100.0 * accuracy.within_8pct_fraction());
  return out;
}

std::string DecisionLogToText(const DecisionLog& log, size_t max_entries) {
  const std::vector<DecisionRecord> records = log.Snapshot();
  const size_t begin =
      records.size() > max_entries ? records.size() - max_entries : 0;
  std::string out;
  Appendf(&out, "decision log (%zu of %" PRIu64 " decisions):\n",
          records.size() - begin, log.total_pushed());
  for (size_t i = begin; i < records.size(); ++i) {
    const DecisionRecord& r = records[i];
    Appendf(&out,
            "  #%-4" PRIu64 " %-12s chose %-14s c=%-8.4f strategy=%s\n",
            r.sequence, r.column_id.empty() ? "?" : r.column_id.c_str(),
            r.chosen_format_name.c_str(), r.c, r.strategy.c_str());
    Appendf(&out,
            "        %" PRIu64 " strings (%.1f%% sampled), %" PRIu64
            " extracts, %" PRIu64 " locates, %" PRIu64
            " scanned, lifetime %.0fs\n",
            r.num_strings, 100.0 * r.sampled_fraction, r.num_extracts,
            r.num_locates, r.num_scans, r.lifetime_seconds);
    if (r.has_actual()) {
      Appendf(&out,
              "        predicted %.0f B, actual %.0f B, rel error %.1f%%\n",
              r.predicted_dict_bytes, r.actual_dict_bytes,
              100.0 * r.prediction_error());
    } else {
      Appendf(&out, "        predicted %.0f B, not built\n",
              r.predicted_dict_bytes);
    }
    for (const FallbackEvent& fb : r.fallbacks) {
      Appendf(&out, "        FELL BACK %s -> %s (%s)\n",
              fb.from_format_name.c_str(), fb.to_format_name.c_str(),
              fb.reason.c_str());
    }
  }
  out.append(PredictionAccuracyToText(log.accuracy()));
  return out;
}

std::string DecisionLogToJson(const DecisionLog& log) {
  std::string out = "{\"decisions\":[";
  bool first = true;
  for (const DecisionRecord& r : log.Snapshot()) {
    if (!first) out.push_back(',');
    first = false;
    Appendf(&out, "{\"sequence\":%" PRIu64 ",\"column\":", r.sequence);
    AppendJsonString(&out, r.column_id);
    Appendf(&out,
            ",\"num_strings\":%" PRIu64
            ",\"sampled_fraction\":%.6g,\"entropy0\":%.6g"
            ",\"num_extracts\":%" PRIu64 ",\"num_locates\":%" PRIu64
            ",\"num_scans\":%" PRIu64
            ",\"lifetime_seconds\":%.6g,\"column_vector_bytes\":%" PRIu64,
            r.num_strings, r.sampled_fraction, r.entropy0, r.num_extracts,
            r.num_locates, r.num_scans, r.lifetime_seconds,
            r.column_vector_bytes);
    out.append(",\"chosen\":");
    AppendJsonString(&out, r.chosen_format_name);
    Appendf(&out, ",\"c\":%.6g,\"strategy\":", r.c);
    AppendJsonString(&out, r.strategy);
    Appendf(&out, ",\"alpha\":%.6g,\"predicted_dict_bytes\":%.6g", r.alpha,
            r.predicted_dict_bytes);
    if (r.has_actual()) {
      Appendf(&out, ",\"actual_dict_bytes\":%.6g,\"rel_error\":%.6g",
              r.actual_dict_bytes, r.prediction_error());
    }
    if (!r.fallbacks.empty()) {
      out.append(",\"fallbacks\":[");
      for (size_t i = 0; i < r.fallbacks.size(); ++i) {
        if (i > 0) out.push_back(',');
        out.append("{\"from\":");
        AppendJsonString(&out, r.fallbacks[i].from_format_name);
        out.append(",\"to\":");
        AppendJsonString(&out, r.fallbacks[i].to_format_name);
        out.append(",\"reason\":");
        AppendJsonString(&out, r.fallbacks[i].reason);
        out.push_back('}');
      }
      out.push_back(']');
    }
    out.append(",\"candidates\":[");
    for (size_t i = 0; i < r.candidates.size(); ++i) {
      if (i > 0) out.push_back(',');
      out.append("{\"format\":");
      AppendJsonString(&out, r.candidates[i].format_name);
      Appendf(&out, ",\"size_bytes\":%.6g,\"rel_time\":%.6g}",
              r.candidates[i].predicted_size_bytes, r.candidates[i].rel_time);
    }
    out.append("]}");
  }
  const PredictionAccuracy accuracy = log.accuracy();
  Appendf(&out,
          "],\"accuracy\":{\"num_predictions\":%" PRIu64
          ",\"mean_abs_rel_error\":%.6g,\"max_abs_rel_error\":%.6g"
          ",\"within_8pct_fraction\":%.6g}}",
          accuracy.num_predictions, accuracy.mean_abs_rel_error(),
          accuracy.max_abs_rel_error, accuracy.within_8pct_fraction());
  return out;
}

}  // namespace obs
}  // namespace adict
