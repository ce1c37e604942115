// Region-sharded parallel SkyNet engine.
//
// The locator's main tree is indexed Region > City > ... > Device
// (§4.2), so alerts in different regions never share an incident tree —
// the same partition-by-locality insight that lets the paper's
// deployment digest O(10^4..10^5) alerts during severe failures. This
// engine exploits it: incoming raw alerts are partitioned by region onto
// N per-shard skynet_engine instances, each driven by a worker thread
// pulling commands from a bounded SPSC queue. tick()/finish() fan out to
// every shard and act as barriers — the shared network_state is only
// read while the caller is blocked, so the caller may freely mutate it
// between ticks. The merge step recombines per-shard incident reports
// into one globally ranked view (severity desc, then incident id).
//
// Per-shard locators use deterministic incident ids, so on a trace that
// respects the region partition invariant (no cross-region alert
// interactions; see DESIGN.md "Region-sharded engine") the merged output
// is bit-identical to a sequential skynet_engine run on the same trace —
// for any shard count.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "skynet/common/spin_mutex.h"
#include "skynet/common/spsc_queue.h"
#include "skynet/core/pipeline.h"

namespace skynet {

struct sharded_config {
    /// Worker shard count (clamped to >= 1). Regions are assigned to
    /// shards round-robin in order of first appearance, so shard load
    /// balances when failures span several regions.
    std::size_t shards = 4;
    /// Per-shard command-queue capacity (rounded up to a power of two).
    /// Ingest is lossless: the producer spins, then parks, while a queue
    /// is full — backpressure, surfaced via
    /// engine_metrics::enqueue_full_waits. Only a dead shard's ingest is
    /// ever shed (degraded.alerts_dropped_failed_shard).
    std::size_t queue_capacity = 256;
    /// Ingest commands are coalesced into batches of up to this many
    /// alerts before being enqueued (amortizes queue traffic).
    std::size_t max_ingest_batch = 64;
    /// Fault hook: invoked by each worker thread (with its shard index)
    /// before executing a command; a throw simulates the shard's engine
    /// crashing mid-command. Drives the worker-failure survivability
    /// tests — production code never sets this.
    std::function<void(std::size_t)> worker_fault{};
    /// Shard watchdog: wall-clock milliseconds a barrier (or a blocked
    /// enqueue) tolerates a shard making no progress before intervening.
    /// A worker parked at the injected stall gate is released and its
    /// queued work proceeds untouched (reports stay bit-identical); a
    /// shard wedged with no recovery point is written off like a failed
    /// one (queued ingest drained and counted, failure surfaced at the
    /// next barrier). 0 disables the watchdog (the default: a stalled
    /// shard blocks the barrier indefinitely, as before).
    std::uint64_t watchdog_deadline_ms = 0;
    /// Fault hook: each worker consults it (shard index, 1-based command
    /// ordinal) before executing a command; true parks the worker at the
    /// stall gate until the watchdog (or the destructor) releases it.
    /// Drives the watchdog tests and the fault DSL's stall clauses —
    /// production code never sets this.
    std::function<bool(std::size_t, std::uint64_t)> worker_stall{};
    /// Deterministic work stealing: a worker whose own queue is empty
    /// prepares (classifies, interns, splits — the stateless stage)
    /// queued ingest batches of loaded peers, always the victim's
    /// lowest-sequence unclaimed batch. The owning shard applies every
    /// batch in submission order — stolen or not — so merged reports are
    /// bit-identical with stealing on, off, or forced. Ignored with one
    /// shard.
    bool steal = true;
    /// Per-shard engine configuration. locator deterministic_ids is
    /// forced on so merged ids are stable across shard counts.
    skynet_config engine{};
};

class sharded_engine {
public:
    /// Barrier-consistent snapshot: per-shard engine states (by shard
    /// index) plus the region routing table, exported after sync() so
    /// every shard is captured at the same logical instant. Restorable
    /// only into an engine with the same shard count.
    struct persist_state {
        std::vector<skynet_engine::persist_state> shards;
        /// (region id, shard index) pairs, sorted by region id.
        std::vector<std::pair<location_id, std::size_t>> regions;
        std::size_t next_region_shard{0};
    };

    explicit sharded_engine(skynet_engine::deps d, sharded_config config = {});
    ~sharded_engine();

    sharded_engine(const sharded_engine&) = delete;
    sharded_engine& operator=(const sharded_engine&) = delete;

    /// Exports the snapshot at a barrier (drains all queues first); see
    /// persist_state.
    [[nodiscard]] persist_state export_state();

    /// Restores a previously exported snapshot. Throws skynet_error when
    /// the snapshot's shard count differs from this engine's.
    void import_state(persist_state state);

    /// Routes one raw alert to its region's shard (asynchronous).
    void ingest(const raw_alert& raw, sim_time now);

    /// Batch ingest: all alerts arrived at `now`.
    void ingest_batch(std::span<const raw_alert> batch, sim_time now);

    /// Batch ingest with per-alert arrival times.
    void ingest_batch(std::span<const traced_alert> batch);

    /// Fans the tick out to every shard and waits for all of them —
    /// `state` is only read while this call blocks. If a worker thread
    /// failed (its engine threw mid-command), the failure surfaces here
    /// as a skynet_error after the barrier completes — the other shards
    /// keep running and their data stays reachable via take_reports().
    void tick(sim_time now, const network_state& state);

    /// Fans out finish() and waits; all incidents close. Surfaces worker
    /// failures like tick().
    void finish(sim_time now, const network_state& state);

    /// Shards whose worker caught an engine exception; their queued work
    /// is drained unexecuted (ingest counted in
    /// degraded.alerts_dropped_failed_shard) so barriers never hang.
    [[nodiscard]] std::size_t failed_shard_count() const noexcept;

    /// Human-readable "shard N: message" lines for every failed shard.
    [[nodiscard]] std::vector<std::string> failed_shard_messages() const;

    /// Merged ranked finished reports (severity desc, then incident id).
    /// Drains pending ingest, then every shard's finished buffer.
    [[nodiscard]] std::vector<incident_report> take_reports();

    /// Merged ranked snapshot of the open incidents. Drains pending
    /// ingest first.
    [[nodiscard]] std::vector<incident_report> open_reports(sim_time now,
                                                            const network_state& state);

    /// Preprocessor counters summed across shards.
    [[nodiscard]] preprocessor_stats preprocessing_stats();

    [[nodiscard]] std::int64_t structured_alert_count();

    /// Aggregate metrics: per-stage sums across shards, plus queue
    /// backpressure and worker busy time. `ticks` counts engine-level
    /// ticks (not per-shard fan-outs).
    [[nodiscard]] engine_metrics metrics();

    /// Fully merged metrics as cached at the last tick/finish barrier —
    /// including every shard's degraded block, so mid-run health reads
    /// are accurate without forcing an extra sync. Refreshed by every
    /// tick()/finish() before failures surface.
    [[nodiscard]] const engine_metrics& barrier_metrics() const noexcept {
        return barrier_metrics_;
    }

    /// Live alerts held across all shard engines (memory-footprint
    /// proxy). Drains pending ingest first.
    [[nodiscard]] std::size_t live_alert_count();

    /// One shard's metrics (stages + that worker's busy time).
    [[nodiscard]] engine_metrics shard_metrics(std::size_t shard);

    [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
    /// Distinct regions observed in the alert stream so far.
    [[nodiscard]] std::size_t region_count() const noexcept { return region_to_shard_.size(); }

private:
    /// One submitted ingest batch, shared between the owner's command
    /// queue and the steal board. `stage` is the claim protocol:
    /// 0 = unclaimed, 1 = claimed (being prepared), 2 = prepared,
    /// 3 = prepare aborted (thief hit an exception; owner falls back).
    /// A thief moves 0→1 (CAS), fills `prep`, stores 2 (release) and
    /// notifies `stage` while it still holds the job; the owner either
    /// wins the CAS itself and runs inline, or waits on `stage` until it
    /// leaves 1 and applies the thief's result — in submission order
    /// either way.
    struct ingest_job {
        std::vector<traced_alert> batch;
        /// Engine-wide submission sequence: the deterministic steal
        /// priority (thieves always take the victim's lowest seq).
        std::uint64_t seq{0};
        std::atomic<std::uint32_t> stage{0};
        prepared_batch prep;
    };

    struct command {
        enum class op : std::uint8_t { ingest, tick, finish, stop } what{op::ingest};
        std::shared_ptr<ingest_job> job;  // ingest only
        sim_time now{0};
        const network_state* state{nullptr};  // tick/finish only
    };

    struct shard {
        shard(skynet_engine::deps d, const skynet_config& cfg, std::size_t queue_capacity,
              std::size_t idx)
            : engine(d, cfg), queue(queue_capacity), index(idx) {}

        skynet_engine engine;
        spsc_queue<command> queue;
        std::size_t index{0};
        /// Steal board: this shard's queued ingest jobs a thief may
        /// claim, oldest (lowest seq) first. Caller pushes after a
        /// successful enqueue; completed front entries pruned lazily.
        spin_mutex board_mu;
        std::deque<std::shared_ptr<ingest_job>> board;
        // Steal accounting (relaxed atomics; read at barriers).
        std::atomic<std::uint64_t> stolen_batches{0};
        std::atomic<std::uint64_t> stolen_alerts{0};
        std::atomic<std::uint64_t> steal_attempts{0};
        std::atomic<std::uint64_t> steal_misses{0};
        std::atomic<std::uint64_t> owner_waits{0};
        std::atomic<std::uint64_t> parks{0};
        std::atomic<std::uint64_t> prepare_ns{0};
        // Producer-side accounting (caller thread only).
        std::vector<traced_alert> pending;
        std::uint64_t submitted{0};
        std::uint64_t full_waits{0};
        std::uint64_t max_depth{0};
        // Worker-side completion, waited on by the caller's barrier.
        std::atomic<std::uint64_t> completed{0};
        std::atomic<std::uint64_t> busy_ns{0};
        /// Set (once) by the worker when a command threw; `failure`
        /// is written before the release store and only read after an
        /// acquire load, so the producer sees a complete message.
        std::atomic<bool> failed{false};
        std::string failure;
        /// Ingest alerts drained unexecuted after the failure.
        std::atomic<std::uint64_t> dropped_failed{0};
        /// Stall-injection gate: 0 = running, 1 = worker parked, 2 =
        /// release requested by the watchdog/destructor.
        std::atomic<std::uint32_t> stall_gate{0};
        /// Watchdog write-off: the shard made no progress past the
        /// deadline and had no recovery point. Drains like `failed`;
        /// kept separate so the wedged worker and the watchdog never
        /// race on the `failure` string.
        std::atomic<bool> written_off{false};
        /// Commands seen by the worker (worker thread only; the ordinal
        /// handed to the worker_stall hook).
        std::uint64_t commands_seen{0};
        std::thread worker;
    };

    void worker_loop(shard& s);
    /// One command on the worker: dead-shard drain, stall gate, fault
    /// hooks, steal-aware ingest. Returns true on stop.
    bool execute_command(shard& s, command& cmd);
    /// The steal-aware ingest path: claim-or-wait on the job's stage.
    void run_ingest(shard& s, ingest_job& job);
    /// Scans peers in ring order from `self`; claims and prepares the
    /// first victim's lowest-seq unclaimed batch. True if work was done.
    bool try_steal(shard& self);
    [[nodiscard]] std::shared_ptr<ingest_job> claim_from(shard& victim);
    /// Caller side: expose a freshly enqueued job to thieves.
    void publish_stealable(shard& s, const std::shared_ptr<ingest_job>& job);
    /// Shard owning the alert's region, keyed by the interned region id
    /// (the root id groups unattributable alerts). Also interns the
    /// alert's full location into `interned` so the shard's preprocessor
    /// skips the string walk. Garbled references (dangling location or
    /// device ids) route to the unattributable bucket unchanged, so the
    /// shard's preprocessor rejects them exactly as a sequential engine
    /// would — never dereferenced here.
    [[nodiscard]] std::size_t shard_of(const raw_alert& raw, location_id& interned);
    void append(std::size_t idx, const raw_alert& raw, location_id interned, sim_time now);
    /// Enqueues the shard's pending alerts as one ingest job.
    void submit_pending(shard& s);
    /// The one enqueue path for every command (ingest, tick, finish,
    /// stop): blocks until the command fits — nothing is shed unless the
    /// watchdog finds the shard dead (see push_supervised) — then does
    /// the enqueue bookkeeping, publishes an ingest job to the steal
    /// board and wakes parked workers.
    void submit(shard& s, command cmd);
    /// Blocking enqueue. With the watchdog enabled, supervises the wait:
    /// a stalled shard is intervened on, and ingest bound for a dead
    /// shard with a full queue is shed (returns false) instead of
    /// hanging the producer. `waits` accumulates full-queue waits.
    [[nodiscard]] bool push_supervised(shard& s, command cmd, std::size_t& waits);
    /// Watchdog action on a shard stalled past the deadline: release a
    /// parked stall gate (recovered) or write the shard off. Returns
    /// true when the stall was recoverable.
    bool watchdog_intervene(shard& s);
    /// Rebuilds the merged barrier_metrics_ cache (shards must be idle).
    void update_barrier_metrics();
    void flush_pending();
    /// Waits until every shard has executed everything submitted to it.
    void barrier();
    /// Throws skynet_error listing every failed shard; called by
    /// tick()/finish() after their barrier completes.
    void surface_failures();
    /// flush_pending + barrier: shards idle, safe to touch engines inline.
    void sync();

    sharded_config config_;
    /// For routing device-attributed alerts whose location is unset.
    const topology* topo_{nullptr};
    /// config_.steal with more than one shard.
    bool steal_enabled_{false};
    std::vector<std::unique_ptr<shard>> shards_;
    std::unordered_map<location_id, std::size_t> region_to_shard_;
    std::size_t next_region_shard_{0};
    /// Caller-side ingest sequence numbers (the steal priority).
    std::uint64_t next_job_seq_{0};
    /// Global work version: bumped (and notified) on every enqueue so
    /// idle workers parked between steal scans wake up. Only used when
    /// stealing is enabled; otherwise workers park on their own queue.
    alignas(64) std::atomic<std::uint64_t> work_signal_{0};
    std::uint64_t ticks_{0};
    std::uint64_t batches_in_{0};
    // Watchdog accounting (caller thread only).
    std::uint64_t stalls_detected_{0};
    std::uint64_t stalls_recovered_{0};
    /// Merged metrics cached at the last tick/finish barrier.
    engine_metrics barrier_metrics_;
};

}  // namespace skynet
