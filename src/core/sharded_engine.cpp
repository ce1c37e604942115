#include "skynet/core/sharded_engine.h"

#include <algorithm>
#include <chrono>

#include "skynet/common/error.h"

namespace skynet {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now() - since)
                                          .count());
}

}  // namespace

sharded_engine::sharded_engine(skynet_engine::deps d, sharded_config config)
    : config_(std::move(config)), topo_(d.topo) {
    if (config_.shards == 0) config_.shards = 1;
    if (config_.max_ingest_batch == 0) config_.max_ingest_batch = 1;
    // Shard ids must agree with a sequential engine on the same trace.
    config_.engine.loc.deterministic_ids = true;
    steal_enabled_ = config_.steal && config_.shards > 1;
    shards_.reserve(config_.shards);
    for (std::size_t i = 0; i < config_.shards; ++i) {
        shards_.push_back(std::make_unique<shard>(d, config_.engine, config_.queue_capacity, i));
    }
    for (auto& s : shards_) {
        s->worker = std::thread(&sharded_engine::worker_loop, this, std::ref(*s));
    }
}

sharded_engine::~sharded_engine() {
    flush_pending();
    for (auto& s : shards_) {
        command stop;
        stop.what = command::op::stop;
        submit(*s, std::move(stop));
    }
    if (config_.worker_stall) {
        // A worker may still be parked at the stall gate with the stop
        // command queued behind it; keep releasing until its queue
        // drains, or join would hang.
        for (auto& s : shards_) {
            while (s->completed.load(std::memory_order_acquire) < s->submitted) {
                std::uint32_t parked = 1;
                if (s->stall_gate.compare_exchange_strong(parked, 2, std::memory_order_acq_rel)) {
                    s->stall_gate.notify_all();
                }
                std::this_thread::sleep_for(std::chrono::microseconds(50));
            }
        }
    }
    for (auto& s : shards_) {
        if (s->worker.joinable()) s->worker.join();
    }
}

void sharded_engine::worker_loop(shard& s) {
    command cmd;
    if (!steal_enabled_) {
        // No stealing: the classic loop, parked on the shard's own queue.
        for (;;) {
            s.queue.pop_blocking(cmd);
            if (execute_command(s, cmd)) return;
        }
    }
    for (;;) {
        if (s.queue.try_pop(cmd)) {
            if (execute_command(s, cmd)) return;
            continue;
        }
        // Load the work version BEFORE the re-check: an enqueue between
        // the re-check and wait() bumps the version, so wait(signal)
        // returns immediately — no missed wakeups.
        const std::uint64_t signal = work_signal_.load(std::memory_order_acquire);
        if (s.queue.try_pop(cmd)) {
            if (execute_command(s, cmd)) return;
            continue;
        }
        if (try_steal(s)) continue;
        s.parks.fetch_add(1, std::memory_order_relaxed);
        work_signal_.wait(signal, std::memory_order_acquire);
    }
}

bool sharded_engine::execute_command(shard& s, command& cmd) {
    const auto start = std::chrono::steady_clock::now();
    bool stop = false;
    if (s.failed.load(std::memory_order_relaxed) ||
        s.written_off.load(std::memory_order_relaxed)) {
        // Dead shard: drain without executing so the producer's
        // push() and barrier() never hang; count what was lost.
        if (cmd.what == command::op::ingest && cmd.job) {
            s.dropped_failed.fetch_add(cmd.job->batch.size(), std::memory_order_relaxed);
        }
        stop = cmd.what == command::op::stop;
    } else {
        ++s.commands_seen;
        if (cmd.what != command::op::stop && config_.worker_stall &&
            config_.worker_stall(s.index, s.commands_seen)) {
            // Injected stall: park at the gate until the watchdog (or
            // the destructor) flips it to release. The command then
            // executes normally — a recovered stall loses nothing.
            // Thieves keep preparing this shard's queued batches in the
            // meantime; on release the owner applies them in order.
            s.stall_gate.store(1, std::memory_order_release);
            s.stall_gate.notify_all();
            s.stall_gate.wait(1, std::memory_order_acquire);
            s.stall_gate.store(0, std::memory_order_release);
            s.stall_gate.notify_all();
        }
        try {
            if (config_.worker_fault) config_.worker_fault(s.index);
            switch (cmd.what) {
                case command::op::ingest:
                    run_ingest(s, *cmd.job);
                    break;
                case command::op::tick:
                    s.engine.tick(cmd.now, *cmd.state);
                    break;
                case command::op::finish:
                    s.engine.finish(cmd.now, *cmd.state);
                    break;
                case command::op::stop:
                    stop = true;
                    break;
            }
        } catch (const std::exception& e) {
            // Never std::terminate the process: record, mark, keep
            // consuming. The failure surfaces at the next barrier.
            if (cmd.what == command::op::ingest && cmd.job) {
                s.dropped_failed.fetch_add(cmd.job->batch.size(), std::memory_order_relaxed);
            }
            s.failure = e.what();
            s.failed.store(true, std::memory_order_release);
        } catch (...) {
            if (cmd.what == command::op::ingest && cmd.job) {
                s.dropped_failed.fetch_add(cmd.job->batch.size(), std::memory_order_relaxed);
            }
            s.failure = "unknown exception";
            s.failed.store(true, std::memory_order_release);
        }
    }
    cmd.job.reset();
    s.busy_ns.fetch_add(elapsed_ns(start), std::memory_order_relaxed);
    s.completed.fetch_add(1, std::memory_order_release);
    s.completed.notify_all();
    return stop;
}

void sharded_engine::run_ingest(shard& s, ingest_job& job) {
    const std::span<const traced_alert> batch(job.batch);
    if (!steal_enabled_) {
        s.engine.ingest_batch(batch);
        return;
    }
    std::uint32_t seen = 0;
    if (job.stage.compare_exchange_strong(seen, 1, std::memory_order_acq_rel)) {
        // We won our own batch: prepare + apply inline (the same two
        // halves a steal goes through, so the paths cannot diverge).
        s.engine.ingest_batch_prepared(batch, s.engine.prepare_batch(batch));
        job.stage.store(2, std::memory_order_release);  // lets the board prune
        return;
    }
    if (seen == 1) {
        // A thief is preparing it: sleep until it stores 2 (or 3) and
        // notifies. wait() rechecks the value, so a store that lands
        // before the owner parks is never missed.
        s.owner_waits.fetch_add(1, std::memory_order_relaxed);
        job.stage.wait(1, std::memory_order_acquire);
    }
    if (job.stage.load(std::memory_order_acquire) == 2) {
        s.engine.ingest_batch_prepared(batch, std::move(job.prep));
    } else {
        // Thief aborted (classification threw on its thread): run the
        // whole batch inline; a real fault will resurface here.
        s.engine.ingest_batch(batch);
    }
}

bool sharded_engine::try_steal(shard& self) {
    self.steal_attempts.fetch_add(1, std::memory_order_relaxed);
    const std::size_t n = shards_.size();
    for (std::size_t k = 1; k < n; ++k) {
        shard& victim = *shards_[(self.index + k) % n];
        std::shared_ptr<ingest_job> job = claim_from(victim);
        if (!job) continue;
        const auto start = std::chrono::steady_clock::now();
        try {
            // The stateless stage only: classify + intern + split against
            // the victim engine's immutable config/topology. The victim's
            // owner may be applying earlier batches concurrently — the
            // two halves share no mutable state (see
            // preprocessor::prepare).
            job->prep = victim.engine.prepare_batch(std::span<const traced_alert>(job->batch));
            job->stage.store(2, std::memory_order_release);
        } catch (...) {
            // Abort the steal; the owner falls back to the plain path and
            // any real fault surfaces on the owning shard.
            job->stage.store(3, std::memory_order_release);
        }
        // Wakes an owner parked in run_ingest; `job` keeps the atomic
        // alive even if the owner has already seen the store and moved on.
        job->stage.notify_one();
        self.prepare_ns.fetch_add(elapsed_ns(start), std::memory_order_relaxed);
        self.stolen_batches.fetch_add(1, std::memory_order_relaxed);
        self.stolen_alerts.fetch_add(job->batch.size(), std::memory_order_relaxed);
        return true;
    }
    self.steal_misses.fetch_add(1, std::memory_order_relaxed);
    return false;
}

std::shared_ptr<sharded_engine::ingest_job> sharded_engine::claim_from(shard& victim) {
    std::lock_guard<spin_mutex> guard(victim.board_mu);
    while (!victim.board.empty()) {
        std::shared_ptr<ingest_job>& front = victim.board.front();
        std::uint32_t unclaimed = 0;
        if (front->stage.compare_exchange_strong(unclaimed, 1, std::memory_order_acq_rel)) {
            std::shared_ptr<ingest_job> job = std::move(front);
            victim.board.pop_front();
            return job;
        }
        victim.board.pop_front();  // claimed or done already: prune
    }
    return nullptr;
}

void sharded_engine::publish_stealable(shard& s, const std::shared_ptr<ingest_job>& job) {
    std::lock_guard<spin_mutex> guard(s.board_mu);
    // Lazy prune keeps the board bounded by the in-flight command count.
    while (!s.board.empty() && s.board.front()->stage.load(std::memory_order_acquire) != 0) {
        s.board.pop_front();
    }
    s.board.push_back(job);
}

std::size_t sharded_engine::shard_of(const raw_alert& raw, location_id& interned) {
    location_table& table = topo_->locations();
    // A dangling (garbled) id is preserved for the shard's preprocessor
    // to reject with a reason; routing must not walk the table with it.
    const bool dangling = raw.loc_id != invalid_location_id && raw.loc_id >= table.size();
    location_id region = root_location_id;
    if (dangling) {
        interned = raw.loc_id;
    } else if (raw.loc_id != invalid_location_id) {
        interned = raw.loc_id;
        region = table.region_of(interned);
    } else {
        // Routing only needs the region prefix; the full path interns on
        // the owning shard (prepare is thread-safe), keeping the producer
        // off the deep-path insert stripes.
        interned = invalid_location_id;
        region = table.region_of(table.intern_prefix(raw.loc, depth_of(hierarchy_level::region)));
    }
    if (region == root_location_id && raw.device && topo_ != nullptr &&
        *raw.device < topo_->devices().size()) {
        // Device-attributed alert with an unset location: fall back to
        // the device's home region. Dangling device ids stay in the
        // unattributable bucket instead of crashing the router.
        region = table.region_of(topo_->device_at(*raw.device).loc_id);
    }
    // Unattributable (cross-region / global) alerts share one shard —
    // the root id's bucket — so their relative order is preserved.
    auto it = region_to_shard_.find(region);
    if (it != region_to_shard_.end()) return it->second;
    const std::size_t idx = next_region_shard_++ % shards_.size();
    region_to_shard_.emplace(region, idx);
    return idx;
}

void sharded_engine::append(std::size_t idx, const raw_alert& raw, location_id interned,
                            sim_time now) {
    shard& s = *shards_[idx];
    s.pending.push_back(traced_alert{.alert = raw, .arrival = now});
    s.pending.back().alert.loc_id = interned;
    if (s.pending.size() >= config_.max_ingest_batch) submit_pending(s);
}

void sharded_engine::submit_pending(shard& s) {
    command cmd;
    cmd.what = command::op::ingest;
    cmd.job = std::make_shared<ingest_job>();
    cmd.job->batch = std::move(s.pending);
    cmd.job->seq = next_job_seq_++;
    s.pending = {};
    submit(s, std::move(cmd));
}

bool sharded_engine::watchdog_intervene(shard& s) {
    ++stalls_detected_;
    std::uint32_t parked = 1;
    if (s.stall_gate.compare_exchange_strong(parked, 2, std::memory_order_acq_rel)) {
        // Worker parked at the injected stall gate: release it. The
        // stalled command executes untouched, so reports stay
        // bit-identical to an unstalled run.
        s.stall_gate.notify_all();
        ++stalls_recovered_;
        return true;
    }
    // Wedged with no recovery point: write the shard off. The worker
    // drains its remaining queue like a failed shard; the write-off
    // surfaces at the next barrier.
    if (!s.written_off.load(std::memory_order_relaxed) &&
        !s.failed.load(std::memory_order_relaxed)) {
        s.written_off.store(true, std::memory_order_release);
    }
    return false;
}

bool sharded_engine::push_supervised(shard& s, command cmd, std::size_t& waits) {
    if (config_.watchdog_deadline_ms == 0) {
        waits += s.queue.push(std::move(cmd));
        return true;
    }
    // Supervised wait: poll instead of parking so a stalled worker is
    // caught and intervened on rather than hanging the producer forever.
    const auto deadline = std::chrono::milliseconds(config_.watchdog_deadline_ms);
    auto last_progress = std::chrono::steady_clock::now();
    std::uint64_t last_done = s.completed.load(std::memory_order_acquire);
    bool waited = false;
    for (;;) {
        if (s.queue.try_push(cmd)) {
            if (waited) ++waits;
            return true;
        }
        waited = true;
        const bool dead = s.failed.load(std::memory_order_acquire) ||
                          s.written_off.load(std::memory_order_acquire);
        if (dead && cmd.what == command::op::ingest) {
            // Dead shard with a full queue: shed the batch (counted)
            // instead of wedging the producer behind a drain that may
            // itself be stuck. Barrier commands are never shed — the
            // worker drains dead-shard queues, so they go through
            // eventually.
            if (cmd.job) {
                s.dropped_failed.fetch_add(cmd.job->batch.size(), std::memory_order_relaxed);
            }
            return false;
        }
        const std::uint64_t done = s.completed.load(std::memory_order_acquire);
        if (done != last_done) {
            last_done = done;
            last_progress = std::chrono::steady_clock::now();
        } else if (!dead && std::chrono::steady_clock::now() - last_progress >= deadline) {
            watchdog_intervene(s);
            last_progress = std::chrono::steady_clock::now();
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

void sharded_engine::submit(shard& s, command cmd) {
    std::shared_ptr<ingest_job> job = cmd.job;
    std::size_t waits = 0;
    if (!push_supervised(s, std::move(cmd), waits)) return;
    s.full_waits += waits;
    s.max_depth = std::max(s.max_depth, static_cast<std::uint64_t>(s.queue.size()));
    ++s.submitted;
    if (!steal_enabled_) return;
    // Publish only after the command is actually enqueued: the steal
    // board must never hold a batch the watchdog shed for a dead shard,
    // or a thief would prepare work the owner never applies.
    if (job) publish_stealable(s, job);
    // Version bump for every command (ingest, barrier, stop): idle
    // thieves parked on the signal must recheck their own queue too.
    work_signal_.fetch_add(1, std::memory_order_release);
    work_signal_.notify_all();
}

void sharded_engine::flush_pending() {
    for (auto& s : shards_) {
        if (!s->pending.empty()) submit_pending(*s);
    }
}

void sharded_engine::barrier() {
    if (config_.watchdog_deadline_ms == 0) {
        for (auto& s : shards_) {
            std::uint64_t done = s->completed.load(std::memory_order_acquire);
            while (done < s->submitted) {
                s->completed.wait(done, std::memory_order_acquire);
                done = s->completed.load(std::memory_order_acquire);
            }
        }
        return;
    }
    // Supervised barrier: poll each shard's progress; a shard quiet past
    // the deadline is intervened on (stall gate released, or written
    // off). A written-off shard's queue drains worker-side, so the wait
    // still terminates; if the worker is wedged inside a command, stop
    // waiting on it — its failure surfaces after the barrier.
    const auto deadline = std::chrono::milliseconds(config_.watchdog_deadline_ms);
    for (auto& s : shards_) {
        auto last_progress = std::chrono::steady_clock::now();
        std::uint64_t last_done = s->completed.load(std::memory_order_acquire);
        while (last_done < s->submitted) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            const std::uint64_t done = s->completed.load(std::memory_order_acquire);
            if (done != last_done) {
                last_done = done;
                last_progress = std::chrono::steady_clock::now();
                continue;
            }
            const bool dead = s->failed.load(std::memory_order_acquire) ||
                              s->written_off.load(std::memory_order_acquire);
            if (std::chrono::steady_clock::now() - last_progress < deadline) continue;
            if (dead) break;  // wedged inside a command; don't wait it out
            watchdog_intervene(*s);
            last_progress = std::chrono::steady_clock::now();
        }
    }
}

void sharded_engine::sync() {
    flush_pending();
    barrier();
}

void sharded_engine::ingest(const raw_alert& raw, sim_time now) {
    location_id lid = invalid_location_id;
    const std::size_t idx = shard_of(raw, lid);
    append(idx, raw, lid, now);
}

void sharded_engine::ingest_batch(std::span<const raw_alert> batch, sim_time now) {
    ++batches_in_;
    for (const raw_alert& raw : batch) {
        location_id lid = invalid_location_id;
        const std::size_t idx = shard_of(raw, lid);
        append(idx, raw, lid, now);
    }
}

void sharded_engine::ingest_batch(std::span<const traced_alert> batch) {
    ++batches_in_;
    for (const traced_alert& t : batch) {
        location_id lid = invalid_location_id;
        const std::size_t idx = shard_of(t.alert, lid);
        append(idx, t.alert, lid, t.arrival);
    }
}

void sharded_engine::tick(sim_time now, const network_state& state) {
    flush_pending();
    for (auto& s : shards_) {
        command cmd;
        cmd.what = command::op::tick;
        cmd.now = now;
        cmd.state = &state;
        submit(*s, std::move(cmd));
    }
    barrier();
    ++ticks_;
    update_barrier_metrics();
    surface_failures();
}

void sharded_engine::finish(sim_time now, const network_state& state) {
    flush_pending();
    for (auto& s : shards_) {
        command cmd;
        cmd.what = command::op::finish;
        cmd.now = now;
        cmd.state = &state;
        submit(*s, std::move(cmd));
    }
    barrier();
    ++ticks_;
    update_barrier_metrics();
    surface_failures();
}

std::size_t sharded_engine::failed_shard_count() const noexcept {
    std::size_t n = 0;
    for (const auto& s : shards_) {
        if (s->failed.load(std::memory_order_acquire) ||
            s->written_off.load(std::memory_order_acquire)) {
            ++n;
        }
    }
    return n;
}

std::vector<std::string> sharded_engine::failed_shard_messages() const {
    std::vector<std::string> out;
    for (const auto& s : shards_) {
        if (s->failed.load(std::memory_order_acquire)) {
            out.push_back("shard " + std::to_string(s->index) + ": " + s->failure);
        } else if (s->written_off.load(std::memory_order_acquire)) {
            out.push_back("shard " + std::to_string(s->index) +
                          ": watchdog: stalled past deadline, written off");
        }
    }
    return out;
}

void sharded_engine::surface_failures() {
    const std::vector<std::string> failures = failed_shard_messages();
    if (failures.empty()) return;
    std::string msg = "sharded_engine: worker failure";
    for (const std::string& f : failures) msg += "; " + f;
    throw skynet_error(msg);
}

sharded_engine::persist_state sharded_engine::export_state() {
    sync();
    persist_state state;
    state.shards.reserve(shards_.size());
    for (auto& s : shards_) state.shards.push_back(s->engine.export_state());
    state.regions.assign(region_to_shard_.begin(), region_to_shard_.end());
    std::sort(state.regions.begin(), state.regions.end());
    state.next_region_shard = next_region_shard_;
    return state;
}

void sharded_engine::import_state(persist_state state) {
    if (state.shards.size() != shards_.size()) {
        throw skynet_error("sharded_engine: snapshot has " + std::to_string(state.shards.size()) +
                           " shards, engine has " + std::to_string(shards_.size()));
    }
    sync();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        shards_[i]->engine.import_state(std::move(state.shards[i]));
    }
    region_to_shard_.clear();
    region_to_shard_.insert(state.regions.begin(), state.regions.end());
    next_region_shard_ = state.next_region_shard;
}

std::vector<incident_report> sharded_engine::take_reports() {
    sync();
    std::vector<incident_report> merged;
    for (auto& s : shards_) {
        std::vector<incident_report> part = s->engine.take_reports();
        merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                      std::make_move_iterator(part.end()));
    }
    std::sort(merged.begin(), merged.end(), report_before);
    return merged;
}

std::vector<incident_report> sharded_engine::open_reports(sim_time now,
                                                          const network_state& state) {
    sync();
    std::vector<incident_report> merged;
    for (auto& s : shards_) {
        std::vector<incident_report> part = s->engine.open_reports(now, state);
        merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                      std::make_move_iterator(part.end()));
    }
    std::sort(merged.begin(), merged.end(), report_before);
    return merged;
}

preprocessor_stats sharded_engine::preprocessing_stats() {
    sync();
    preprocessor_stats total;
    for (auto& s : shards_) total += s->engine.preprocessing_stats();
    return total;
}

std::int64_t sharded_engine::structured_alert_count() {
    sync();
    std::int64_t total = 0;
    for (auto& s : shards_) total += s->engine.structured_alert_count();
    return total;
}

void sharded_engine::update_barrier_metrics() {
    engine_metrics total;
    std::uint64_t written_off = 0;
    for (auto& s : shards_) {
        // Only touch a shard's engine when its worker is idle (everything
        // submitted has completed); a wedged worker may still be inside
        // the engine. Producer-side counters are always safe.
        if (s->completed.load(std::memory_order_acquire) >= s->submitted) {
            total += s->engine.metrics();
        }
        total.enqueue_full_waits += s->full_waits;
        total.max_queue_depth = std::max(total.max_queue_depth, s->max_depth);
        total.busy_ns += s->busy_ns.load(std::memory_order_relaxed);
        total.degraded.alerts_dropped_failed_shard +=
            s->dropped_failed.load(std::memory_order_relaxed);
        if (s->written_off.load(std::memory_order_acquire)) ++written_off;
    }
    // Per-shard engines each count every fan-out; report engine-level
    // tick and batch counts instead.
    total.ticks = ticks_;
    total.batches_in = batches_in_;
    total.overload.stalls_detected = stalls_detected_;
    total.overload.stalls_recovered = stalls_recovered_;
    total.overload.shards_written_off = written_off;
    steal_metrics st;
    for (auto& s : shards_) {
        st.batches_stolen += s->stolen_batches.load(std::memory_order_relaxed);
        st.alerts_stolen += s->stolen_alerts.load(std::memory_order_relaxed);
        st.steal_attempts += s->steal_attempts.load(std::memory_order_relaxed);
        st.steal_misses += s->steal_misses.load(std::memory_order_relaxed);
        st.owner_waits += s->owner_waits.load(std::memory_order_relaxed);
        st.worker_parks += s->parks.load(std::memory_order_relaxed);
        st.prepare_ns += s->prepare_ns.load(std::memory_order_relaxed);
    }
    if (topo_ != nullptr) {
        const location_table& table = topo_->locations();
        st.intern_lock_contention = table.lock_contention();
        st.intern_entries = table.size();
    }
    total.steal = st;
    barrier_metrics_ = std::move(total);
}

engine_metrics sharded_engine::metrics() {
    sync();
    update_barrier_metrics();
    return barrier_metrics_;
}

std::size_t sharded_engine::live_alert_count() {
    sync();
    std::size_t total = 0;
    for (auto& s : shards_) {
        if (s->completed.load(std::memory_order_acquire) >= s->submitted) {
            total += s->engine.live_alert_count();
        }
    }
    return total;
}

engine_metrics sharded_engine::shard_metrics(std::size_t shard_index) {
    sync();
    const shard& s = *shards_.at(shard_index);
    engine_metrics m = s.engine.metrics();
    m.enqueue_full_waits = s.full_waits;
    m.max_queue_depth = s.max_depth;
    m.busy_ns = s.busy_ns.load(std::memory_order_relaxed);
    m.degraded.alerts_dropped_failed_shard = s.dropped_failed.load(std::memory_order_relaxed);
    return m;
}

}  // namespace skynet
