#include "skynet/core/preprocessor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "skynet/common/error.h"

namespace skynet {

namespace {

/// Canonical alert order used everywhere the preprocessor must pick or
/// emit from a set of consolidation entries: type id, then location
/// path. Independent of hash-map layout and of the order location ids
/// were interned in, so a restored-from-snapshot preprocessor and the
/// original agree bit-for-bit on every future output.
bool canonical_before(const structured_alert& a, const structured_alert& b) {
    if (a.type != b.type) return a.type < b.type;
    return a.loc < b.loc;
}

/// Per-table key salts: the three consolidation tables share one sketch,
/// so the same (type, location) key must land on different cells per
/// table — otherwise an open-table repeat would inflate the persistence
/// count of the same alert.
constexpr std::uint64_t kOpenSalt = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kPersistSalt = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kCorrelSalt = 0x165667b19e3779f9ull;

/// The related-alert rule matches surges by name: "traffic surge" is
/// registered for two sources under different type ids.
bool is_surge(const structured_alert& alert) { return alert.type_name == "traffic surge"; }

/// Sketch estimates flow into structured_alert::count, which is int.
int clamp_count(std::uint64_t estimate) noexcept {
    constexpr std::uint64_t cap = std::numeric_limits<int>::max();
    return static_cast<int>(std::min(estimate, cap));
}

}  // namespace

preprocessor::preprocessor(const topology* topo, const alert_type_registry* registry,
                           const syslog_classifier* syslog, preprocessor_config config)
    : topo_(topo), registry_(registry), syslog_(syslog), config_(config),
      policy_(config.sketch) {
    if (topo_ == nullptr || registry_ == nullptr) {
        throw skynet_error("preprocessor: null topology or registry");
    }
}

preprocessor::persist_state preprocessor::export_state() const {
    persist_state out;
    out.stats = stats_;
    out.open.reserve(open_.size());
    for (const auto& [key, open] : open_) {
        out.open.push_back(persist_state::open_entry{.alert = open.alert,
                                                     .last_seen = open.last_seen});
    }
    std::sort(out.open.begin(), out.open.end(), [](const auto& a, const auto& b) {
        return canonical_before(a.alert, b.alert);
    });
    const auto export_pending = [](const std::unordered_map<std::uint64_t, pending_alert>& from,
                                   std::vector<persist_state::pending_entry>& to) {
        to.reserve(from.size());
        for (const auto& [key, p] : from) {
            to.push_back(persist_state::pending_entry{.alert = p.alert,
                                                      .occurrences = p.occurrences,
                                                      .first_seen = p.first_seen,
                                                      .last_seen = p.last_seen,
                                                      .last_counted_ts = p.last_counted_ts});
        }
        std::sort(to.begin(), to.end(), [](const auto& a, const auto& b) {
            return canonical_before(a.alert, b.alert);
        });
    };
    export_pending(pending_persistence_, out.persistence);
    export_pending(pending_correlation_, out.correlation);
    out.sightings.reserve(sightings_.size());
    for (const sighting& s : sightings_) {
        out.sightings.push_back(persist_state::sighting_entry{.loc = s.loc, .at = s.at});
    }
    return out;
}

void preprocessor::import_state(persist_state state) {
    stats_ = state.stats;
    open_.clear();
    open_surges_.clear();
    for (persist_state::open_entry& e : state.open) {
        const std::uint64_t key = key_of(e.alert);
        const auto [it, fresh] = open_.try_emplace(key);
        if (fresh) index_open(key, e.alert);
        it->second = open_alert{.alert = std::move(e.alert), .last_seen = e.last_seen};
    }
    const auto import_pending = [](std::vector<persist_state::pending_entry>& from,
                                   std::unordered_map<std::uint64_t, pending_alert>& to) {
        to.clear();
        for (persist_state::pending_entry& e : from) {
            const std::uint64_t key = key_of(e.alert);
            to[key] = pending_alert{.alert = std::move(e.alert),
                                    .occurrences = e.occurrences,
                                    .first_seen = e.first_seen,
                                    .last_seen = e.last_seen,
                                    .last_counted_ts = e.last_counted_ts};
        }
    };
    import_pending(state.persistence, pending_persistence_);
    import_pending(state.correlation, pending_correlation_);
    sightings_.clear();
    sighting_scopes_.clear();
    first_sighting_seq_ = 0;
    sightings_indexed_ = 0;
    for (const persist_state::sighting_entry& s : state.sightings) {
        sightings_.push_back(sighting{.loc = s.loc, .at = s.at});
    }
    // Reset-on-recover: sketch state is approximate and deliberately not
    // part of snapshots. A recovered sketched-regime run re-learns its
    // counts from scratch; the direction of the error is conservative —
    // forgotten repeats re-emit as new alerts rather than being merged
    // away silently. See DESIGN.md "Sketched counting".
    policy_.reset_all();
    sketch_epoch_ = 0;
}

std::optional<structured_alert> preprocessor::to_structured(const raw_alert& raw) const {
    structured_alert s;
    s.source = raw.source;
    s.when = time_range{raw.timestamp, raw.timestamp};
    s.loc = raw.loc;
    s.metric = raw.metric;
    s.device = raw.device;
    s.src_loc = raw.src_loc;
    s.dst_loc = raw.dst_loc;

    // Intern at the boundary: monitors pass ids through, trace-replayed
    // alerts arrive with the sentinel and get interned here once.
    location_table& table = topo_->locations();
    s.loc_id = (raw.loc_id != invalid_location_id) ? raw.loc_id : table.intern(raw.loc);
    if (raw.src_loc) {
        s.src_id = (raw.src_id != invalid_location_id) ? raw.src_id : table.intern(*raw.src_loc);
    }
    if (raw.dst_loc) {
        s.dst_id = (raw.dst_id != invalid_location_id) ? raw.dst_id : table.intern(*raw.dst_loc);
    }

    std::string type_name = raw.kind;
    if (raw.source == data_source::syslog) {
        // Free text: recover the type through the FT-tree templates.
        if (syslog_ == nullptr) return std::nullopt;
        const auto r = syslog_->classify(raw.message);
        if (!r) return std::nullopt;  // benign / unknown log line
        type_name = r->type_name;
    }
    if (type_name.empty()) return std::nullopt;

    const auto id = registry_->find(raw.source, type_name);
    if (!id) return std::nullopt;  // type not in the catalog
    const alert_type& t = registry_->at(*id);
    s.type = t.id;
    s.type_name = t.name;
    s.category = t.category;
    return s;
}

std::uint64_t preprocessor::key_of(const structured_alert& alert) {
    return (static_cast<std::uint64_t>(alert.type) << 32) |
           static_cast<std::uint64_t>(alert.loc_id);
}

void preprocessor::latest_sighting::drop_before(std::uint64_t first_live) {
    while (head_ < items_.size() && items_[head_].first < first_live) ++head_;
    if (head_ == items_.size()) {
        items_.clear();
        head_ = 0;
    } else if (head_ >= 64 && 2 * head_ >= items_.size()) {
        items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }
}

void preprocessor::latest_sighting::push(std::uint64_t seq, sim_time at,
                                         std::uint64_t first_live) {
    drop_before(first_live);
    // An older sighting no later than this one can never be the latest
    // again: it leaves first.
    while (items_.size() > head_ && items_.back().second <= at) items_.pop_back();
    items_.emplace_back(seq, at);
}

std::optional<sim_time> preprocessor::latest_sighting::latest(std::uint64_t first_live) {
    drop_before(first_live);
    if (head_ == items_.size()) return std::nullopt;
    return items_[head_].second;
}

void preprocessor::pop_sighting() {
    sightings_.pop_front();
    ++first_sighting_seq_;
}

void preprocessor::index_sightings() {
    const location_table& table = topo_->locations();
    const std::uint64_t end = first_sighting_seq_ + sightings_.size();
    for (std::uint64_t seq = std::max(sightings_indexed_, first_sighting_seq_); seq < end; ++seq) {
        const sighting& s = sightings_[seq - first_sighting_seq_];
        sighting_scopes_[s.loc].at.push(seq, s.at, first_sighting_seq_);
        for (location_id a = s.loc;; a = table.parent_of(a)) {
            sighting_scopes_[a].within.push(seq, s.at, first_sighting_seq_);
            if (a == root_location_id) break;
        }
    }
    sightings_indexed_ = end;
}

bool preprocessor::corroborated(location_id loc, sim_time now) {
    // Corroboration counts when the witnesses share scope — one contains
    // the other — and the sighting is at most correlation_window old (one
    // noted at a later arrival time, out of order, counts too): a live
    // sighting within loc's subtree, or at one of its ancestors.
    index_sightings();
    const sim_time oldest = now - config_.correlation_window;
    const auto recent = [this, oldest](latest_sighting& l) {
        const std::optional<sim_time> latest = l.latest(first_sighting_seq_);
        return latest && *latest >= oldest;
    };
    if (const auto it = sighting_scopes_.find(loc);
        it != sighting_scopes_.end() && recent(it->second.within)) {
        return true;
    }
    const location_table& table = topo_->locations();
    for (location_id a = loc; a != root_location_id;) {
        a = table.parent_of(a);
        if (const auto it = sighting_scopes_.find(a);
            it != sighting_scopes_.end() && recent(it->second.at)) {
            return true;
        }
    }
    return false;
}

void preprocessor::note_sighting(const structured_alert& alert, sim_time now) {
    if (alert.category == alert_category::failure ||
        alert.category == alert_category::root_cause) {
        sightings_.push_back(sighting{.loc = alert.loc_id, .at = now});
        while (config_.max_sightings != 0 && sightings_.size() > config_.max_sightings) {
            pop_sighting();
            ++evicted_pending_;
        }
    }
}

void preprocessor::index_open(std::uint64_t key, const structured_alert& alert) {
    if (config_.consolidate_related && is_surge(alert)) open_surges_.push_back(key);
}

void preprocessor::unindex_open(std::uint64_t key, const structured_alert& alert) {
    if (!config_.consolidate_related || !is_surge(alert)) return;
    open_surges_.erase(std::find(open_surges_.begin(), open_surges_.end(), key));
}

preprocessor::open_alert* preprocessor::related_surge(location_id loc, sim_time now) {
    const location_table& table = topo_->locations();
    open_alert* target = nullptr;
    for (const std::uint64_t key : open_surges_) {
        open_alert& open = open_.find(key)->second;
        if (now - open.last_seen > config_.persistence_window) continue;
        const location_id other = open.alert.loc_id;
        const bool adjacent = table.contains(other, loc) || table.contains(loc, other) ||
                              table.parent_of(other) == table.parent_of(loc);
        if (adjacent && other != loc &&
            (target == nullptr || canonical_before(open.alert, target->alert))) {
            target = &open;
        }
    }
    return target;
}

template <typename Entry>
void preprocessor::enforce_cap(std::unordered_map<std::uint64_t, Entry>& map,
                               std::uint64_t keep_key) {
    while (config_.max_pending_alerts != 0 && map.size() > config_.max_pending_alerts) {
        auto victim = map.end();
        for (auto it = map.begin(); it != map.end(); ++it) {
            if (it->first == keep_key) continue;
            if (victim == map.end() || it->second.last_seen < victim->second.last_seen ||
                (it->second.last_seen == victim->second.last_seen &&
                 canonical_before(it->second.alert, victim->second.alert))) {
                victim = it;
            }
        }
        if (victim == map.end()) return;  // only the protected entry left
        if constexpr (std::is_same_v<Entry, open_alert>) {
            unindex_open(victim->first, victim->second.alert);
        }
        map.erase(victim);
        ++evicted_pending_;
    }
}

void preprocessor::emit(structured_alert alert, sim_time now, std::vector<preprocess_event>& out) {
    note_sighting(alert, now);
    const std::uint64_t key = key_of(alert);
    auto it = open_.find(key);
    if (it == open_.end() && policy_.enabled() && policy_.overflowing(open_.size())) {
        // Sketched dedup: the open table is full of *other* keys, so this
        // key's repeat count lives in the sketch. A zero pre-estimate is
        // exact for count-min, so "new alert" decisions are never wrong;
        // repeats become consolidation updates whose count may be
        // overestimated (never under). No per-key state is stored — the
        // update event carries the incoming alert's own time range.
        const sketch::counted c =
            policy_.sketch_add(key ^ kOpenSalt, static_cast<std::uint64_t>(std::max(1, alert.count)));
        if (c.first) {
            ++stats_.emitted_new;
            out.push_back(preprocess_event{.alert = std::move(alert), .is_update = false});
            return;
        }
        alert.count = clamp_count(c.count);
        ++stats_.merged_identical;
        ++stats_.emitted_update;
        out.push_back(preprocess_event{.alert = std::move(alert), .is_update = true});
        return;
    }
    if (it == open_.end()) {
        it = open_.try_emplace(key).first;
        it->second = open_alert{.alert = alert, .last_seen = now};
        index_open(key, alert);
        ++stats_.emitted_new;
        out.push_back(preprocess_event{.alert = std::move(alert), .is_update = false});
        enforce_cap(open_, key);
        return;
    }
    if (now - it->second.last_seen > config_.dedup_window) {
        it->second = open_alert{.alert = alert, .last_seen = now};
        ++stats_.emitted_new;
        out.push_back(preprocess_event{.alert = std::move(alert), .is_update = false});
        return;
    }
    // Identical-alert consolidation: refresh the open alert.
    open_alert& open = it->second;
    open.alert.when.extend(alert.when.begin);
    open.alert.when.extend(alert.when.end);
    open.alert.count += alert.count;
    open.alert.metric = std::max(open.alert.metric, alert.metric);
    open.last_seen = now;
    ++stats_.merged_identical;
    ++stats_.emitted_update;
    out.push_back(preprocess_event{.alert = open.alert, .is_update = true});
}

void preprocessor::route(structured_alert alert, sim_time now,
                         std::vector<preprocess_event>& out) {
    // Defense in depth: an inverted time range would corrupt every
    // downstream window computation; refuse it rather than assert.
    if (alert.when.begin > alert.when.end) {
        ++stats_.rejected_malformed;
        return;
    }
    // Single-source persistence rule: end-to-end loss probes and
    // liveness-probe results must recur across *distinct observations*
    // before they count (sporadic loss is ignored; a glitching prober
    // that floods identical device-down alerts in a single sweep counts
    // as one observation, §4.2).
    const bool probe_loss =
        (alert.source == data_source::ping || alert.source == data_source::internet_telemetry) &&
        alert.category == alert_category::failure;
    const bool liveness_probe =
        alert.source == data_source::out_of_band && alert.type_name == "device inaccessible";
    if ((probe_loss || liveness_probe) && config_.persistence_threshold > 1) {
        const std::uint64_t key = key_of(alert);
        auto it = pending_persistence_.find(key);
        const bool inserted = it == pending_persistence_.end();
        if (inserted) {
            if (policy_.enabled() && policy_.overflowing(pending_persistence_.size())) {
                // Sketched persistence: count occurrences in the sketch
                // and release the incoming alert once the estimate
                // crosses the threshold. Overestimation releases a probe
                // blip *earlier* than exact counting would — degraded
                // toward emitting, never toward losing a persistent
                // failure. (The per-poll burst dedup of last_counted_ts
                // is not modeled here; same direction of error.)
                const sketch::counted c = policy_.sketch_add(key ^ kPersistSalt, 1);
                if (c.count < static_cast<std::uint64_t>(config_.persistence_threshold)) {
                    return;  // hold
                }
                emit(std::move(alert), now, out);
                return;
            }
            it = pending_persistence_
                     .try_emplace(key, pending_alert{.alert = alert,
                                                     .occurrences = 0,
                                                     .first_seen = now,
                                                     .last_seen = now})
                     .first;
            enforce_cap(pending_persistence_, key);
        }
        pending_alert& p = it->second;
        if (!inserted && now - p.last_seen > config_.persistence_window) {
            // Stale entry: restart the observation window.
            ++stats_.dropped_sporadic;
            p = pending_alert{.alert = alert, .occurrences = 0, .first_seen = now, .last_seen = now};
        }
        if (alert.when.begin != p.last_counted_ts) {
            ++p.occurrences;
            p.last_counted_ts = alert.when.begin;
        }
        p.last_seen = now;
        p.alert.when.extend(alert.when.begin);
        p.alert.when.extend(alert.when.end);
        p.alert.metric = std::max(p.alert.metric, alert.metric);
        if (p.occurrences < config_.persistence_threshold) return;  // hold
        structured_alert ready = p.alert;
        pending_persistence_.erase(it);
        emit(std::move(ready), now, out);
        return;
    }

    // Cross-source rule: a traffic drop alone is expected behaviour.
    const bool is_traffic_drop = alert.type_name == "traffic drop";
    if (is_traffic_drop && config_.cross_source) {
        if (corroborated(alert.loc_id, now)) {
            // Reclassify: the combination means an abnormal decline.
            if (const auto id = registry_->find(data_source::traffic_stats,
                                                "abnormal traffic decline")) {
                const alert_type& t = registry_->at(*id);
                alert.type = t.id;
                alert.type_name = t.name;
                alert.category = t.category;
            }
            emit(std::move(alert), now, out);
            return;
        }
        const std::uint64_t key = key_of(alert);
        auto it = pending_correlation_.find(key);
        if (it == pending_correlation_.end()) {
            if (policy_.enabled() && policy_.overflowing(pending_correlation_.size())) {
                // Sketched correlation: there is no stored alert to
                // release on later corroboration, so an uncorroborated
                // drop past the cardinality ceiling is discarded now
                // (the exact regime would hold it for up to
                // correlation_window and usually discard it then). The
                // sketch records the occurrence so the degraded marker
                // and estimates reflect the flood.
                (void)policy_.sketch_add(key ^ kCorrelSalt, 1);
                ++stats_.dropped_uncorroborated;
                return;
            }
            it = pending_correlation_
                     .try_emplace(key, pending_alert{.alert = alert,
                                                     .occurrences = 1,
                                                     .first_seen = now,
                                                     .last_seen = now})
                     .first;
            enforce_cap(pending_correlation_, key);
            return;  // waits for corroboration or expiry
        }
        it->second.last_seen = now;
        it->second.alert.when.extend(alert.when.end);
        return;  // waits for corroboration or expiry
    }

    // Related-alert rule: a surge at one location implies surges on the
    // paths around it; merge a surge into an open surge at an adjacent
    // (ancestor/descendant/sibling-parent) location. When several open
    // surges qualify, the canonical-first one absorbs the merge, so the
    // outcome does not depend on hash-map iteration order.
    if (config_.consolidate_related && is_surge(alert)) {
        if (open_alert* target = related_surge(alert.loc_id, now)) {
            target->alert.count += 1;
            target->alert.when.extend(alert.when.end);
            target->last_seen = now;
            ++stats_.merged_related;
            return;
        }
    }

    emit(std::move(alert), now, out);
}

const char* preprocessor::reject_reason(const raw_alert& raw) const {
    if (!std::isfinite(raw.metric)) return "non-finite metric";
    if (raw.timestamp < 0) return "pre-epoch timestamp";
    if (raw.device && *raw.device >= topo_->devices().size()) return "dangling device id";
    if (raw.link && *raw.link >= topo_->links().size()) return "dangling link id";
    const location_table& table = topo_->locations();
    // The sentinel means "not interned yet", which is fine; anything else
    // out of range is a garbled id that downstream tables would walk off.
    const location_id ids[] = {raw.loc_id, raw.src_id, raw.dst_id};
    for (const location_id id : ids) {
        if (id != invalid_location_id && id >= table.size()) return "dangling location id";
    }
    return nullptr;
}

std::vector<preprocess_event> preprocessor::process(const raw_alert& raw, sim_time now) {
    // One source of truth: process() is the prepare/apply pair run
    // back-to-back, so the stolen-batch path cannot drift from this one.
    return apply_prepared(raw, now, prepare(raw, now));
}

prepared_alert preprocessor::prepare(const raw_alert& raw, sim_time now) const {
    prepared_alert p;

    if (reject_reason(raw) != nullptr) {
        p.rejected = true;
        return p;
    }

    // Clock skew: a generation timestamp ahead of the arrival time would
    // invert downstream time ranges; clamp it to the arrival.
    raw_alert clamped;
    const raw_alert* input = &raw;
    if (raw.timestamp > now) {
        clamped = raw;
        clamped.timestamp = now;
        input = &clamped;
        p.skew_clamped = true;
    }

    auto structured = to_structured(*input);
    if (!structured) {
        p.unclassified = true;
        return p;
    }

    // Link alerts split into one alert per endpoint device (§4.1).
    if (config_.split_link_alerts && raw.link.has_value() && !structured->device.has_value()) {
        const link& l = topo_->link_at(*raw.link);
        for (device_id endpoint : {l.a, l.b}) {
            const device& d = topo_->device_at(endpoint);
            if (d.role == device_role::isp) continue;  // outside our hierarchy
            structured_alert split = *structured;
            split.loc = d.loc;
            split.loc_id = d.loc_id;
            split.device = endpoint;
            p.routes[p.route_count++] = std::move(split);
        }
        return p;
    }

    // End-to-end pair alerts are the same shape as link alerts — the
    // "link" is the path between the endpoints — so they split onto both
    // endpoint locations too (§4.1), instead of landing at a coarse
    // common ancestor that would weld unrelated incidents together.
    const location_table& table = topo_->locations();
    if (config_.split_link_alerts && structured->src_loc && structured->dst_loc &&
        table.is_ancestor_of(structured->loc_id, structured->src_id) &&
        table.is_ancestor_of(structured->loc_id, structured->dst_id)) {
        const std::pair<const location*, location_id> endpoints[] = {
            {&*structured->src_loc, structured->src_id},
            {&*structured->dst_loc, structured->dst_id},
        };
        for (const auto& [endpoint, endpoint_id] : endpoints) {
            structured_alert split = *structured;
            split.loc = *endpoint;
            split.loc_id = endpoint_id;
            p.routes[p.route_count++] = std::move(split);
        }
        return p;
    }

    p.routes[p.route_count++] = std::move(*structured);
    return p;
}

std::vector<preprocess_event> preprocessor::apply_prepared(const raw_alert& raw, sim_time now,
                                                           prepared_alert&& prep) {
    ++stats_.raw_in;
    std::vector<preprocess_event> out;

    if (prep.rejected) {
        ++stats_.rejected_malformed;
        return out;
    }
    if (prep.skew_clamped) ++stats_.skew_clamped;
    if (prep.unclassified) {
        ++stats_.dropped_unclassified;
        if (miner_ != nullptr && raw.source == data_source::syslog) {
            miner_->observe(raw.message, now);
        }
        return out;
    }

    for (std::uint8_t i = 0; i < prep.route_count; ++i) {
        route(std::move(prep.routes[i]), now, out);
    }
    return out;
}

std::vector<preprocess_event> preprocessor::flush(sim_time now) {
    std::vector<preprocess_event> out;

    // Resolve pending traffic drops: corroborated ones are upgraded and
    // released, expired loners are discarded. Resolution runs in the
    // canonical alert order (not map order) so the emission sequence —
    // and with it every downstream incident's alert list — is identical
    // across hash layouts and across a snapshot/restore cycle.
    std::vector<std::uint64_t> correlation_keys;
    correlation_keys.reserve(pending_correlation_.size());
    for (const auto& [key, p] : pending_correlation_) correlation_keys.push_back(key);
    std::sort(correlation_keys.begin(), correlation_keys.end(),
              [this](std::uint64_t a, std::uint64_t b) {
                  return canonical_before(pending_correlation_.at(a).alert,
                                          pending_correlation_.at(b).alert);
              });
    for (const std::uint64_t key : correlation_keys) {
        const auto it = pending_correlation_.find(key);
        pending_alert& p = it->second;
        if (corroborated(p.alert.loc_id, now)) {
            structured_alert alert = p.alert;
            if (const auto id =
                    registry_->find(data_source::traffic_stats, "abnormal traffic decline")) {
                const alert_type& t = registry_->at(*id);
                alert.type = t.id;
                alert.type_name = t.name;
                alert.category = t.category;
            }
            pending_correlation_.erase(it);
            emit(std::move(alert), now, out);
        } else if (now - p.first_seen > config_.correlation_window) {
            ++stats_.dropped_uncorroborated;
            pending_correlation_.erase(it);
        }
    }

    // Expire stale persistence buffers (the sporadic blips).
    for (auto it = pending_persistence_.begin(); it != pending_persistence_.end();) {
        if (now - it->second.last_seen > config_.persistence_window) {
            ++stats_.dropped_sporadic;
            it = pending_persistence_.erase(it);
        } else {
            ++it;
        }
    }

    // Expire open alerts past the dedup window.
    for (auto it = open_.begin(); it != open_.end();) {
        if (now - it->second.last_seen > config_.dedup_window) {
            unindex_open(it->first, it->second.alert);
            it = open_.erase(it);
        } else {
            ++it;
        }
    }

    // Prune the corroboration history.
    while (!sightings_.empty() && now - sightings_.front().at > config_.correlation_window) {
        pop_sighting();
    }

    // Sketch epoch rollover: the sketched analog of open-table expiry.
    // Every dedup_window after the sketch first activates, the halves
    // rotate — the current window becomes the decaying previous half and
    // estimates fade over two windows instead of cliffing to zero, while
    // stale floods still stop inflating estimates forever. Keyed on sim
    // time only, so replays roll the epoch at identical points.
    if (policy_.sketch_active()) {
        if (sketch_epoch_ == 0) {
            sketch_epoch_ = now;
        } else if (now - sketch_epoch_ >= config_.dedup_window) {
            policy_.rotate_sketch();
            sketch_epoch_ = now;
        }
    }
    return out;
}

}  // namespace skynet
