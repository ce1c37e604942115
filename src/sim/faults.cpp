#include "skynet/sim/faults.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "skynet/common/strings.h"

namespace skynet {

namespace {

/// splitmix64 finalizer: the stateless hash behind random dropout
/// windows, so "is source S dark at time T" never depends on how many
/// rng draws earlier alerts consumed.
std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

[[nodiscard]] bool rate_ok(double r) { return r >= 0.0 && r <= 1.0 && std::isfinite(r); }

/// Parses "120ms" / "45s" / "2m" / bare milliseconds.
[[nodiscard]] std::optional<sim_duration> parse_duration_token(std::string_view token) {
    sim_duration scale = 1;
    if (token.ends_with("ms")) {
        token.remove_suffix(2);
    } else if (token.ends_with("s")) {
        scale = seconds(1);
        token.remove_suffix(1);
    } else if (token.ends_with("m")) {
        scale = minutes(1);
        token.remove_suffix(1);
    }
    if (token.empty()) return std::nullopt;
    std::int64_t value = 0;
    for (const char c : token) {
        if (c < '0' || c > '9') return std::nullopt;
        value = value * 10 + (c - '0');
    }
    return value * scale;
}

[[nodiscard]] std::string_view trim_token(std::string_view s) {
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
    return s;
}

[[nodiscard]] std::optional<double> parse_rate_token(std::string_view token) {
    if (token.empty()) return std::nullopt;
    char* end = nullptr;
    const std::string buf(token);
    const double value = std::strtod(buf.c_str(), &end);
    if (end != buf.c_str() + buf.size() || !rate_ok(value)) return std::nullopt;
    return value;
}

}  // namespace

bool fault_spec::any() const noexcept {
    return !dropouts.empty() || dropout_rate > 0.0 || duplicate_rate > 0.0 ||
           reorder_rate > 0.0 || corrupt_rate > 0.0 || (skew_rate > 0.0 && max_skew > 0) ||
           !stalls.empty() || stall_rate > 0.0;
}

error fault_spec::validate() const {
    if (!rate_ok(dropout_rate)) return error("faults: dropout rate outside [0,1]");
    if (!rate_ok(duplicate_rate)) return error("faults: dup rate outside [0,1]");
    if (!rate_ok(reorder_rate)) return error("faults: reorder rate outside [0,1]");
    if (!rate_ok(corrupt_rate)) return error("faults: corrupt rate outside [0,1]");
    if (!rate_ok(skew_rate)) return error("faults: skew_rate outside [0,1]");
    if (!rate_ok(stall_rate)) return error("faults: stall rate outside [0,1]");
    for (const stall_point& p : stalls) {
        if (p.ordinal == 0) return error("faults: stall ordinal is 1-based, got 0");
    }
    if (dropout_period <= 0) return error("faults: dropout_period must be positive");
    if (reorder_max_delay < 0) return error("faults: negative reorder_max_delay");
    if (max_skew < 0) return error("faults: negative skew bound");
    for (const dropout_window& w : dropouts) {
        if (w.from < 0 || w.duration < 0) return error("faults: negative dropout window");
    }
    return error{};
}

fault_parse_result parse_fault_spec(std::string_view text) {
    fault_parse_result result;
    auto fail = [&](std::string_view clause, std::string message) {
        result.errors.push_back(
            fault_parse_error{.clause = std::string(clause), .message = std::move(message)});
    };

    for (const std::string& clause : split(text, ';')) {
        for (const std::string& raw_part : split(clause, ',')) {
            const std::string_view part = trim_token(raw_part);
            if (part.empty()) continue;

            // drop:<source>@<from>+<for> — a scripted dropout window.
            if (part.starts_with("drop:")) {
                const std::string_view body = part.substr(5);
                const std::size_t at = body.find('@');
                const std::size_t plus = body.find('+', at == std::string_view::npos ? 0 : at);
                if (at == std::string_view::npos || plus == std::string_view::npos) {
                    fail(part, "expected drop:<source>@<from>+<for>");
                    continue;
                }
                const auto source = parse_source(body.substr(0, at));
                const auto from = parse_duration_token(body.substr(at + 1, plus - at - 1));
                const auto dur = parse_duration_token(body.substr(plus + 1));
                if (!source || !from || !dur) {
                    fail(part, "bad source or duration in drop clause");
                    continue;
                }
                result.spec.dropouts.push_back(
                    dropout_window{.source = *source, .from = *from, .duration = *dur});
                continue;
            }

            // stall:<shard>@<ordinal> — a scripted worker stall.
            if (part.starts_with("stall:")) {
                const std::string_view body = part.substr(6);
                const std::size_t at = body.find('@');
                if (at == std::string_view::npos) {
                    fail(part, "expected stall:<shard>@<ordinal>");
                    continue;
                }
                const auto shard = parse_duration_token(body.substr(0, at));
                const auto ordinal = parse_duration_token(body.substr(at + 1));
                if (!shard || !ordinal || *ordinal < 1) {
                    fail(part, "bad shard or ordinal in stall clause");
                    continue;
                }
                result.spec.stalls.push_back(
                    stall_point{.shard = static_cast<std::size_t>(*shard),
                                .ordinal = static_cast<std::uint64_t>(*ordinal)});
                continue;
            }

            const std::size_t eq = part.find('=');
            if (eq == std::string_view::npos) {
                fail(part, "expected key=value");
                continue;
            }
            const std::string_view key = trim_token(part.substr(0, eq));
            const std::string_view value = trim_token(part.substr(eq + 1));
            const auto rate = parse_rate_token(value);
            const auto duration = parse_duration_token(value);

            if (key == "seed") {
                if (!duration || *duration < 0) {
                    fail(part, "bad seed");
                } else {
                    result.spec.seed = static_cast<std::uint64_t>(*duration);
                }
            } else if (key == "dropout") {
                if (rate) result.spec.dropout_rate = *rate;
                else fail(part, "dropout rate outside [0,1]");
            } else if (key == "dropout_period") {
                if (duration && *duration > 0) result.spec.dropout_period = *duration;
                else fail(part, "bad dropout_period");
            } else if (key == "dup") {
                if (rate) result.spec.duplicate_rate = *rate;
                else fail(part, "dup rate outside [0,1]");
            } else if (key == "reorder") {
                if (rate) result.spec.reorder_rate = *rate;
                else fail(part, "reorder rate outside [0,1]");
            } else if (key == "reorder_max") {
                if (duration) result.spec.reorder_max_delay = *duration;
                else fail(part, "bad reorder_max");
            } else if (key == "skew") {
                if (duration) result.spec.max_skew = *duration;
                else fail(part, "bad skew bound");
            } else if (key == "skew_rate") {
                if (rate) result.spec.skew_rate = *rate;
                else fail(part, "skew_rate outside [0,1]");
            } else if (key == "corrupt") {
                if (rate) result.spec.corrupt_rate = *rate;
                else fail(part, "corrupt rate outside [0,1]");
            } else if (key == "stall") {
                if (rate) result.spec.stall_rate = *rate;
                else fail(part, "stall rate outside [0,1]");
            } else {
                fail(part, "unknown fault clause");
            }
        }
    }
    if (result.ok()) {
        if (error e = result.spec.validate()) fail(text, e.message());
    }
    return result;
}

fault_injector::fault_injector(fault_spec spec) : spec_(std::move(spec)), rand_(spec_.seed) {
    if (error e = spec_.validate()) throw skynet_error("fault_injector: " + e.message());
}

bool fault_injector::in_dropout(data_source source, sim_time at) {
    bool dark = false;
    for (const dropout_window& w : spec_.dropouts) {
        if (w.source == source && at >= w.from && at < w.from + w.duration) {
            dark = true;
            break;
        }
    }
    if (!dark && spec_.dropout_rate > 0.0) {
        const std::uint64_t window = static_cast<std::uint64_t>(at / spec_.dropout_period);
        const std::uint64_t h = mix64(spec_.seed ^ mix64(window * 64 +
                                                         static_cast<std::uint64_t>(source)));
        // Map the top 53 bits to [0,1): a stateless per-(source, window)
        // coin independent of stream order.
        const double coin = static_cast<double>(h >> 11) * 0x1.0p-53;
        dark = coin < spec_.dropout_rate;
    }
    if (dark) {
        const std::uint32_t bit = 1u << static_cast<std::uint32_t>(source);
        if ((dropout_seen_mask_ & bit) == 0) {
            dropout_seen_mask_ |= bit;
            ++stats_.sources_in_dropout;
        }
    }
    return dark;
}

void fault_injector::corrupt(raw_alert& alert) {
    switch (rand_.uniform_int(0, 4)) {
        case 0:  // unknown type: the registry lookup must reject, not assert
            alert.kind = "####garbled";
            break;
        case 1:  // dangling device reference (out of the topology's range)
            alert.device = std::numeric_limits<device_id>::max() - 7;
            break;
        case 2:  // dangling link reference
            alert.link = std::numeric_limits<link_id>::max() - 7;
            break;
        case 3:  // non-finite metric
            alert.metric = std::numeric_limits<double>::quiet_NaN();
            break;
        default:  // garbage (pre-epoch) generation timestamp
            alert.timestamp = -alert.timestamp - 1;
            break;
    }
}

void fault_injector::pop_due(sim_time now, std::vector<traced_alert>& out) {
    while (!held_.empty() && held_.top().due <= now) {
        traced_alert t = held_.top().t;
        t.arrival = held_.top().due;
        held_.pop();
        out.push_back(std::move(t));
    }
}

void fault_injector::feed(const traced_alert& t, std::vector<traced_alert>& out) {
    ++stats_.alerts_in;
    // Release anything whose reorder delay has elapsed *before* this
    // delivery, so output arrival times stay (nearly) monotone.
    pop_due(t.arrival, out);

    if (in_dropout(t.alert.source, t.arrival)) {
        ++stats_.dropped_dropout;
        return;
    }

    traced_alert faulted = t;
    if (spec_.skew_rate > 0.0 && spec_.max_skew > 0 && rand_.chance(spec_.skew_rate)) {
        faulted.alert.timestamp += rand_.uniform_int(-spec_.max_skew, spec_.max_skew);
        ++stats_.skewed;
    }
    if (spec_.corrupt_rate > 0.0 && rand_.chance(spec_.corrupt_rate)) {
        corrupt(faulted.alert);
        ++stats_.corrupted;
    }

    if (spec_.reorder_rate > 0.0 && rand_.chance(spec_.reorder_rate)) {
        const sim_duration delay = rand_.uniform_int(1, std::max<sim_duration>(
                                                           1, spec_.reorder_max_delay));
        held_.push(held_alert{.due = faulted.arrival + delay, .seq = seq_++, .t = faulted});
        ++stats_.reordered;
        return;
    }

    out.push_back(faulted);
    if (spec_.duplicate_rate > 0.0 && rand_.chance(spec_.duplicate_rate)) {
        out.push_back(faulted);
        ++stats_.duplicated;
    }
}

std::vector<traced_alert> fault_injector::apply(std::span<const traced_alert> batch) {
    std::vector<traced_alert> out;
    out.reserve(batch.size());
    for (const traced_alert& t : batch) feed(t, out);
    return out;
}

std::vector<traced_alert> fault_injector::release(sim_time now) {
    std::vector<traced_alert> out;
    pop_due(now, out);
    return out;
}

std::vector<traced_alert> fault_injector::drain() {
    std::vector<traced_alert> out;
    pop_due(std::numeric_limits<sim_time>::max(), out);
    return out;
}

std::function<bool(std::size_t, std::uint64_t)> fault_injector::worker_stall_hook() const {
    if (spec_.stalls.empty() && spec_.stall_rate <= 0.0) return {};
    // Captured by value: the hook outlives no one, and being stateless it
    // is safe to call from every worker thread concurrently.
    const std::vector<stall_point> stalls = spec_.stalls;
    const double rate = spec_.stall_rate;
    const std::uint64_t seed = spec_.seed;
    return [stalls, rate, seed](std::size_t shard, std::uint64_t ordinal) {
        for (const stall_point& p : stalls) {
            if (p.shard == shard && p.ordinal == ordinal) return true;
        }
        if (rate <= 0.0) return false;
        const std::uint64_t h =
            mix64(seed ^ 0x7374616cull ^ mix64(ordinal * 64 + static_cast<std::uint64_t>(shard)));
        const double coin = static_cast<double>(h >> 11) * 0x1.0p-53;
        return coin < rate;
    };
}

}  // namespace skynet
