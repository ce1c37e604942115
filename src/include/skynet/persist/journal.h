// Write-ahead alert journal.
//
// Binary, append-only record of everything a durable session fed its
// engine: raw-alert batches and tick/finish barriers, in order. On
// recovery the journal suffix past the newest snapshot is replayed to
// reconstruct the exact engine state at the crash point.
//
// File layout: an 8-byte magic ("SKYNETJ1") followed by records framed
//   [u8 type][u32 payload_len LE][u32 crc32c(payload) LE][payload]
// Batch payloads are a compact little-endian encoding (alert count,
// then per alert: arrival, source, timestamp, length-prefixed strings,
// presence flags, and the metric as a raw double bit pattern — replay
// is bit-exact by construction); the
// barrier payload is the 8-byte LE tick time. A torn tail — short
// header, payload overrunning the file, or CRC mismatch — marks the end
// of the valid prefix: recovery counts and drops it, never aborts.
// Recovery reads the file once, checks every frame's header and CRC
// without decoding a payload (scan_journal), and decodes only the
// records past the snapshot it restores (decode_journal).
// Writes are buffered and flushed every `flush_every` records
// (group-commit); finish barriers flush, and the durable session
// flushes before every checkpoint (a checkpoint must not reference
// unflushed bytes) and before a crash-drill exit.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "skynet/sim/trace.h"

namespace skynet::persist {

inline constexpr std::string_view journal_magic = "SKYNETJ1";
inline constexpr const char* journal_filename = "journal.skywal";

enum class record_type : std::uint8_t {
    batch = 1,   ///< one ingest batch (binary-encoded payload)
    tick = 2,    ///< tick barrier (8-byte LE time)
    finish = 3,  ///< finish barrier (8-byte LE time)
};

/// One decoded journal record.
struct journal_record {
    record_type type{record_type::batch};
    std::vector<traced_alert> batch;  ///< batch records only
    sim_time now{0};                  ///< tick/finish records only
};

/// Bytes of a record frame header: [u8 type][u32 len LE][u32 crc32c LE].
inline constexpr std::size_t record_header_bytes = 1 + 4 + 4;

/// Encodes `batch` into the compact binary batch payload (clears `out`
/// first). Public because the format doubles as the daemon's streaming
/// ingest wire format: a client frames these payloads exactly like
/// journal records and the server replays them bit-exactly.
void encode_batch_payload(std::string& out, std::span<const traced_alert> batch);

/// Decodes a batch payload produced by encode_batch_payload; false on
/// malformed/truncated bytes (out may then hold a partial prefix).
[[nodiscard]] bool decode_batch_payload(std::string_view payload, std::vector<traced_alert>& out);

/// Encodes a tick/finish barrier payload (the 8-byte LE sim time).
[[nodiscard]] std::string encode_barrier_payload(sim_time now);

/// Decodes a barrier payload; false unless it is exactly 8 bytes.
[[nodiscard]] bool decode_barrier_payload(std::string_view payload, sim_time& now);

class journal_writer {
public:
    /// Opens `path` for appending, writing the magic when the file is
    /// new or empty. Throws skynet_error when the file cannot be opened.
    explicit journal_writer(const std::string& path, std::size_t flush_every = 16);
    ~journal_writer();

    journal_writer(const journal_writer&) = delete;
    journal_writer& operator=(const journal_writer&) = delete;

    void append_batch(std::span<const traced_alert> batch);
    void append_barrier(record_type type, sim_time now);

    /// Pushes buffered records to the OS; counted in flushes().
    void flush();

    [[nodiscard]] std::uint64_t records_written() const noexcept { return records_; }
    [[nodiscard]] std::uint64_t flushes() const noexcept { return flushes_; }
    /// File offset after everything appended so far (what a snapshot
    /// records as its journal position).
    [[nodiscard]] std::uint64_t bytes_written() const noexcept { return offset_; }

private:
    void append(record_type type, std::string_view payload, bool force_flush);

    std::FILE* file_{nullptr};
    std::string payload_buf_;  ///< reused batch-encoding scratch
    std::size_t flush_every_;
    std::size_t unflushed_{0};
    std::uint64_t records_{0};
    std::uint64_t flushes_{0};
    std::uint64_t offset_{0};
};

/// One intact record frame found by scan_journal.
struct journal_frame {
    record_type type{record_type::batch};
    std::uint64_t offset{0};  ///< absolute offset of the frame header
    std::uint32_t length{0};  ///< payload bytes
};

/// A journal read once: its bytes, the frames of its valid prefix and,
/// after decode_journal, the records decoded from some offset on.
struct journal_read_result {
    std::vector<journal_record> records;  ///< filled by decode_journal
    std::vector<journal_frame> frames;    ///< every intact frame, in order
    std::string bytes;                    ///< the whole file
    /// Absolute offset one past the last intact record (resume-append
    /// truncates the file here before writing).
    std::uint64_t valid_bytes{0};
    /// Bytes of torn/corrupt tail dropped (0 for a clean journal).
    std::uint64_t truncated_tail_bytes{0};
    /// Why the scan stopped early; empty for a clean journal.
    std::string truncation_reason;
    /// The file does not exist (a valid empty journal, not an error).
    bool missing{false};
};

/// Reads `path` with one sized read and checks the magic and every
/// frame's header and CRC, decoding no payload. The first bad frame ends
/// the valid prefix; corruption is reported, never thrown.
[[nodiscard]] journal_read_result scan_journal(const std::string& path);

/// Decodes the scanned frames that start at or past `from` into
/// `journal.records`. A frame whose CRC matched but whose payload does
/// not decode ends the valid prefix there, as a torn frame would.
void decode_journal(journal_read_result& journal, std::uint64_t from);

/// scan_journal, then decode_journal of every record.
[[nodiscard]] journal_read_result read_journal(const std::string& path);

/// The whole file at `path` in one sized read; nullopt when it cannot be
/// opened.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

/// Drops a torn tail so a recovered session can append safely. Returns
/// false when the file cannot be resized.
[[nodiscard]] bool truncate_journal(const std::string& path, std::uint64_t valid_bytes);

}  // namespace skynet::persist
