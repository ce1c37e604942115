// Federation digest format: the unit of multi-region streaming.
//
// A region daemon periodically condenses the incident reports closed at
// a barrier into a *digest* — sequence-numbered, region-tagged, carrying
// the full ranked reports in the persist layer's binary codec — and
// streams it to the global aggregator. The wire mirrors the SKYNETJ1
// design exactly: an 8-byte magic ("SKYNETF2"), then records framed
//   [u8 type][u32 payload_len LE][u32 crc32c(payload) LE][payload]
// with two record types: hello (payload = region name, opens a session)
// and digest. One format, two transports, again: the emitter's digest
// journal on disk is the same byte stream minus the magic/hello, so a
// recovering emitter replays its own journal to rebuild the send queue
// and the catch-up state.
//
// Session protocol (emitter side):
//   dial -> magic + hello(region) -> read "HAVE <last_seq>\n"
//        -> send every digest frame with seq > last_seq -> shutdown(WR)
//        -> read "OK <last_seq> <applied>\n"
// A session with nothing new to send still runs the handshake — that is
// the heartbeat that keeps the region marked live on the aggregator.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "skynet/common/error.h"
#include "skynet/core/pipeline.h"

namespace skynet::federate {

/// Version 2: binary digest payloads. Peers and digest journals of
/// version 1 (text payloads) are rejected with a reason.
inline constexpr std::string_view fed_magic = "SKYNETF2";
inline constexpr const char* digest_journal_filename = "digests.skyfed";

enum class fed_record : std::uint8_t {
    hello = 1,   ///< session opener; payload = region name
    digest = 2,  ///< one incident digest (binary payload, see below)
};

/// One region digest. The payload, in the persist codec
/// (report_codec.h): region, seq, barrier and finish, then the payload's
/// own path dictionary (location ids are table-local), then the report
/// count and the reports, encoded as a checkpoint encodes them.
struct region_digest {
    std::string region;
    std::uint64_t seq{0};  ///< 1-based, strictly increasing per region
    sim_time barrier{0};   ///< sim time of the barrier that closed these reports
    bool finish{false};    ///< true when the region's trace finished
    std::vector<incident_report> reports;
};

/// Encodes the digest payload.
[[nodiscard]] std::string encode_digest_payload(const region_digest& d);

/// Decodes a digest payload; false with `err` set on malformed bytes.
[[nodiscard]] bool decode_digest_payload(std::string_view payload, region_digest& d,
                                         std::string& err);

/// Frames one federation record (header + payload, no magic).
[[nodiscard]] std::string frame_fed_record(fed_record type, std::string_view payload);

/// One decoded federation frame.
struct fed_frame {
    fed_record type{fed_record::hello};
    std::string payload;
};

/// Incremental decoder for the federation byte stream; same contract as
/// serve::wire_decoder — feed() arbitrary chunks, drain frames with
/// next(), any framing violation latches corrupt() with a reason.
class fed_decoder {
public:
    static constexpr std::uint32_t max_payload_bytes = 64u << 20;

    void feed(std::string_view bytes);
    [[nodiscard]] std::optional<fed_frame> next();

    [[nodiscard]] bool corrupt() const noexcept { return corrupt_; }
    [[nodiscard]] const std::string& corruption_reason() const noexcept { return reason_; }
    [[nodiscard]] std::uint64_t frames_decoded() const noexcept { return frames_; }

private:
    void fail(std::string reason);

    std::string buf_;
    std::size_t pos_{0};
    bool seen_magic_{false};
    bool corrupt_{false};
    std::string reason_;
    std::uint64_t frames_{0};
};

/// Result of scanning an emitter's digest journal.
struct digest_journal_read {
    std::vector<region_digest> digests;
    /// Offset one past the last intact digest (resume-append truncates
    /// the file here before writing).
    std::uint64_t valid_bytes{0};
    std::uint64_t truncated_tail_bytes{0};
    std::string truncation_reason;  ///< empty for a clean journal
    bool missing{false};            ///< no file yet (a valid empty journal)
};

/// Scans `path` with the journal layer's torn-tail tolerance: a short
/// header, overrunning payload, CRC mismatch, or undecodable digest
/// marks the end of the valid prefix — counted and dropped, never an
/// abort.
[[nodiscard]] digest_journal_read read_digest_journal(const std::string& path);

/// Append-side of the digest journal: framed digest records after the
/// magic, flushed per append (digests ride the barrier cadence, so
/// group commit would buy nothing and cost catch-up fidelity).
class digest_journal_writer {
public:
    /// Opens `path` for appending, writing the magic when new/empty.
    /// Throws skynet_error when the file cannot be opened.
    explicit digest_journal_writer(const std::string& path);
    ~digest_journal_writer();

    digest_journal_writer(const digest_journal_writer&) = delete;
    digest_journal_writer& operator=(const digest_journal_writer&) = delete;

    /// Appends one already-framed digest record and flushes.
    void append_frame(std::string_view frame);

    [[nodiscard]] std::uint64_t bytes_written() const noexcept { return offset_; }

private:
    std::FILE* file_{nullptr};
    std::uint64_t offset_{0};
};

}  // namespace skynet::federate
