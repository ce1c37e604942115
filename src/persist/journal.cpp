#include "skynet/persist/journal.h"

#include <sys/stat.h>

#include <bit>
#include <filesystem>
#include <system_error>

#include "skynet/common/error.h"
#include "skynet/persist/crc32c.h"
#include "skynet/persist/report_codec.h"

namespace skynet::persist {

namespace {

using codec::put_str;
using codec::put_u32;
using codec::put_u64;

constexpr std::size_t header_bytes = record_header_bytes;

// --- binary batch codec -------------------------------------------------------
// Text formats cost too much on the hot ingest path (double formatting
// alone blows the journal-overhead budget), so batches use a direct
// little-endian encoding. Doubles travel as bit patterns — replay is
// bit-exact with no round-trip caveats. Interned ids are deliberately
// not stored: like trace-file alerts, journal alerts arrive with the
// sentinel and the ingesting preprocessor re-interns them.

constexpr std::uint8_t flag_device = 1u << 0;
constexpr std::uint8_t flag_link = 1u << 1;
constexpr std::uint8_t flag_src = 1u << 2;
constexpr std::uint8_t flag_dst = 1u << 3;

void put_loc(std::string& out, const location& loc) {
    put_u32(out, static_cast<std::uint32_t>(loc.segments().size()));
    for (const std::string& seg : loc.segments()) put_str(out, seg);
}

location get_loc(codec::reader& in) {
    std::vector<std::string> segments(in.bounded(in.u32(), 4));  // each segment costs >= 4 bytes
    for (std::string& seg : segments) seg = in.str();
    return location(std::move(segments));
}

}  // namespace

std::string encode_barrier_payload(sim_time now) {
    std::string payload;
    put_u64(payload, static_cast<std::uint64_t>(now));
    return payload;
}

bool decode_barrier_payload(std::string_view payload, sim_time& now) {
    if (payload.size() != 8) return false;
    now = codec::reader(payload).i64();
    return true;
}

void encode_batch_payload(std::string& out, std::span<const traced_alert> batch) {
    out.clear();
    out.reserve(4 + batch.size() * 96);
    put_u32(out, static_cast<std::uint32_t>(batch.size()));
    for (const traced_alert& t : batch) {
        const raw_alert& a = t.alert;
        put_u64(out, static_cast<std::uint64_t>(t.arrival));
        out.push_back(static_cast<char>(a.source));
        put_u64(out, static_cast<std::uint64_t>(a.timestamp));
        put_str(out, a.kind);
        put_str(out, a.message);
        put_loc(out, a.loc);
        std::uint8_t flags = 0;
        if (a.device) flags |= flag_device;
        if (a.link) flags |= flag_link;
        if (a.src_loc) flags |= flag_src;
        if (a.dst_loc) flags |= flag_dst;
        out.push_back(static_cast<char>(flags));
        if (a.device) put_u32(out, *a.device);
        if (a.link) put_u32(out, *a.link);
        put_u64(out, std::bit_cast<std::uint64_t>(a.metric));
        if (a.src_loc) put_loc(out, *a.src_loc);
        if (a.dst_loc) put_loc(out, *a.dst_loc);
    }
}

bool decode_batch_payload(std::string_view payload, std::vector<traced_alert>& out) {
    codec::reader in(payload);
    const std::size_t count = in.bounded(in.u32(), 1);
    out.reserve(count);
    for (std::size_t i = 0; i < count && in.ok(); ++i) {
        traced_alert t;
        t.arrival = in.i64();
        raw_alert& a = t.alert;
        a.source = static_cast<data_source>(in.u8());
        a.timestamp = in.i64();
        a.kind = in.str();
        a.message = in.str();
        a.loc = get_loc(in);
        const std::uint8_t flags = in.u8();
        if (flags & flag_device) a.device = in.u32();
        if (flags & flag_link) a.link = in.u32();
        a.metric = in.dbl();
        if (flags & flag_src) a.src_loc = get_loc(in);
        if (flags & flag_dst) a.dst_loc = get_loc(in);
        if (!in.ok()) break;
        out.push_back(std::move(t));
    }
    return in.ok() && in.remaining() == 0;
}

journal_writer::journal_writer(const std::string& path, std::size_t flush_every)
    : flush_every_(flush_every == 0 ? 1 : flush_every) {
    // "a+b" so an existing valid prefix is preserved on resume.
    file_ = std::fopen(path.c_str(), "a+b");
    if (file_ == nullptr) {
        throw skynet_error("journal: cannot open " + path);
    }
    std::fseek(file_, 0, SEEK_END);
    const long size = std::ftell(file_);
    if (size <= 0) {
        std::fwrite(journal_magic.data(), 1, journal_magic.size(), file_);
        std::fflush(file_);
        offset_ = journal_magic.size();
    } else {
        offset_ = static_cast<std::uint64_t>(size);
    }
}

journal_writer::~journal_writer() {
    if (file_ != nullptr) {
        std::fflush(file_);
        std::fclose(file_);
    }
}

void journal_writer::append(record_type type, std::string_view payload, bool force_flush) {
    std::string header(1, static_cast<char>(type));
    put_u32(header, static_cast<std::uint32_t>(payload.size()));
    put_u32(header, crc32c(payload));
    std::fwrite(header.data(), 1, header.size(), file_);
    std::fwrite(payload.data(), 1, payload.size(), file_);
    offset_ += header_bytes + payload.size();
    ++records_;
    if (force_flush || ++unflushed_ >= flush_every_) flush();
}

void journal_writer::append_batch(std::span<const traced_alert> batch) {
    encode_batch_payload(payload_buf_, batch);
    append(record_type::batch, payload_buf_, /*force_flush=*/false);
}

void journal_writer::append_barrier(record_type type, sim_time now) {
    // Group-commit: barriers ride the flush_every cadence like batches;
    // the durable session flushes explicitly where durability is load-
    // bearing (checkpoints, finish, crash drill). A finish barrier ends
    // the stream, so it flushes here.
    append(type, encode_barrier_payload(now), /*force_flush=*/type == record_type::finish);
}

void journal_writer::flush() {
    std::fflush(file_);
    unflushed_ = 0;
    ++flushes_;
}

std::optional<std::string> read_file(const std::string& path) {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) return std::nullopt;
    std::string bytes;
    struct stat st{};
    if (::fstat(::fileno(file), &st) == 0 && st.st_size > 0) {
        bytes.resize(static_cast<std::size_t>(st.st_size));
        bytes.resize(std::fread(bytes.data(), 1, bytes.size(), file));
    }
    std::fclose(file);
    return bytes;
}

journal_read_result scan_journal(const std::string& path) {
    journal_read_result result;
    std::optional<std::string> file = read_file(path);
    if (!file) {
        result.missing = true;
        return result;
    }
    result.bytes = std::move(*file);
    const std::string_view bytes = result.bytes;
    std::size_t pos = 0;
    if (!bytes.starts_with(journal_magic)) {
        // Nothing trustworthy past a bad magic: the whole file is tail.
        result.truncation_reason = "bad journal magic";
    } else {
        pos = journal_magic.size();
    }
    while (result.truncation_reason.empty() && pos < bytes.size()) {
        if (bytes.size() - pos < header_bytes) {
            result.truncation_reason = "torn record header";
            break;
        }
        const auto type = static_cast<record_type>(static_cast<unsigned char>(bytes[pos]));
        const std::uint32_t len = codec::load_u32(bytes.data() + pos + 1);
        if (type != record_type::batch && type != record_type::tick &&
            type != record_type::finish) {
            result.truncation_reason = "unknown record type";
        } else if (bytes.size() - pos - header_bytes < len) {
            result.truncation_reason = "torn record payload";
        } else if (crc32c(bytes.substr(pos + header_bytes, len)) !=
                   codec::load_u32(bytes.data() + pos + 5)) {
            result.truncation_reason = "payload checksum mismatch";
        } else {
            result.frames.push_back(journal_frame{.type = type, .offset = pos, .length = len});
            pos += header_bytes + len;
        }
    }
    result.valid_bytes = pos;
    result.truncated_tail_bytes = bytes.size() - pos;
    return result;
}

void decode_journal(journal_read_result& journal, std::uint64_t from) {
    for (std::size_t i = 0; i < journal.frames.size(); ++i) {
        const journal_frame& frame = journal.frames[i];
        if (frame.offset < from) continue;
        const std::string_view payload(journal.bytes.data() + frame.offset + header_bytes,
                                       frame.length);
        journal_record record;
        record.type = frame.type;
        const bool batch = frame.type == record_type::batch;
        if (batch ? !decode_batch_payload(payload, record.batch)
                  : !decode_barrier_payload(payload, record.now)) {
            // The CRC matched, so this is a writer/reader version
            // mismatch, not a torn write — still cut here, the record
            // cannot be replayed faithfully.
            journal.truncation_reason =
                batch ? "unparseable batch payload" : "barrier payload size mismatch";
            journal.valid_bytes = frame.offset;
            journal.truncated_tail_bytes = journal.bytes.size() - frame.offset;
            journal.frames.resize(i);
            return;
        }
        journal.records.push_back(std::move(record));
    }
}

journal_read_result read_journal(const std::string& path) {
    journal_read_result journal = scan_journal(path);
    decode_journal(journal, 0);
    return journal;
}

bool truncate_journal(const std::string& path, std::uint64_t valid_bytes) {
    std::error_code ec;
    std::filesystem::resize_file(path, valid_bytes, ec);
    return !ec;
}

}  // namespace skynet::persist
