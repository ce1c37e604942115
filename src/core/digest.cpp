#include "skynet/core/digest.h"

#include <algorithm>
#include <cstdio>

namespace skynet {
namespace {

using type_row = incident::type_row;

/// A category's type rows, most frequent first. The count sort runs on
/// the name-ordered rows, so equal counts keep a fixed order.
std::vector<type_row> rows_for(const incident& inc, alert_category category) {
    std::vector<type_row> out = inc.type_rows(category);
    std::sort(out.begin(), out.end(),
              [](const type_row& a, const type_row& b) { return a.count > b.count; });
    return out;
}

}  // namespace

std::string incident_digest(const incident_report& report, const digest_options& options) {
    std::string out;
    char buf[256];
    const incident& inc = report.inc;

    std::snprintf(buf, sizeof buf, "incident %llu severity %.1f%s\n",
                  static_cast<unsigned long long>(inc.id), report.severity.score,
                  report.actionable ? " [actionable]" : "");
    out += buf;
    out += "location: " + inc.root.to_string() + "\n";
    if (report.zoomed) out += "zoomed: " + report.zoomed->to_string() + "\n";
    out += "window: " + format_time(inc.when.begin) + " .. " + format_time(inc.when.end) +
           " (" + format_duration(inc.when.length()) + ")\n";
    std::snprintf(buf, sizeof buf, "impact: I=%.2f T=%.2f loss=%.3f customers=%d\n",
                  report.severity.impact_factor, report.severity.time_factor,
                  report.severity.avg_ping_loss, report.severity.important_customers);
    out += buf;

    // Categories in diagnostic priority order: root cause first — it
    // survives truncation the longest.
    struct section {
        alert_category category;
        const char* title;
    };
    static constexpr section sections[] = {
        {alert_category::root_cause, "root cause alerts"},
        {alert_category::failure, "failure alerts"},
        {alert_category::abnormal, "abnormal alerts"},
    };
    for (const section& s : sections) {
        const std::vector<type_row> rows = rows_for(inc, s.category);
        if (rows.empty()) continue;
        std::string block = std::string(s.title) + ":\n";
        int listed = 0;
        for (const type_row& row : rows) {
            if (listed++ >= options.max_types_per_category) {
                block += "  ... " + std::to_string(rows.size() - listed + 1) + " more types\n";
                break;
            }
            const std::string_view source = to_string(row.source);
            std::snprintf(buf, sizeof buf, "  [%.*s] %.*s x%d\n",
                          static_cast<int>(source.size()), source.data(),
                          static_cast<int>(row.name.size()), row.name.data(), row.count);
            block += buf;
        }
        if (out.size() + block.size() > options.max_chars) {
            if (out.size() + 16 <= options.max_chars) out += "...(truncated)\n";
            break;
        }
        out += block;
    }

    if (out.size() > options.max_chars) out.resize(options.max_chars);
    return out;
}

std::string json_escape(std::string_view text) {
    std::string out;
    out.reserve(text.size() + 8);
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

std::string incident_digest_json(const incident_report& report) {
    const incident& inc = report.inc;
    std::string out = "{";
    char buf[256];

    std::snprintf(buf, sizeof buf, "\"id\":%llu,", static_cast<unsigned long long>(inc.id));
    out += buf;
    out += "\"location\":\"" + json_escape(inc.root.to_string()) + "\",";
    if (report.zoomed) {
        out += "\"zoomed\":\"" + json_escape(report.zoomed->to_string()) + "\",";
    }
    std::snprintf(buf, sizeof buf, "\"begin_ms\":%lld,\"end_ms\":%lld,",
                  static_cast<long long>(inc.when.begin), static_cast<long long>(inc.when.end));
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "\"severity\":{\"score\":%.4f,\"impact\":%.4f,\"time_factor\":%.4f,"
                  "\"avg_ping_loss\":%.6f,\"important_customers\":%d},",
                  report.severity.score, report.severity.impact_factor,
                  report.severity.time_factor, report.severity.avg_ping_loss,
                  report.severity.important_customers);
    out += buf;
    out += std::string("\"actionable\":") + (report.actionable ? "true" : "false") + ",";

    out += "\"alerts\":[";
    static constexpr alert_category categories[] = {
        alert_category::root_cause, alert_category::failure, alert_category::abnormal};
    bool first = true;
    for (alert_category cat : categories) {
        for (const type_row& row : rows_for(inc, cat)) {
            if (!first) out += ",";
            first = false;
            std::snprintf(buf, sizeof buf,
                          "{\"category\":\"%s\",\"source\":\"%s\",\"type\":\"%s\",\"count\":%d}",
                          std::string(to_string(cat)).c_str(),
                          json_escape(to_string(row.source)).c_str(),
                          json_escape(row.name).c_str(), row.count);
            out += buf;
        }
    }
    out += "]}";
    return out;
}

}  // namespace skynet
