#include "skynet/serve/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "skynet/persist/crc32c.h"
#include "skynet/persist/report_codec.h"

namespace skynet::serve {

namespace {

using persist::codec::load_u32;
using persist::codec::put_u32;

/// Shared tail of the two stream_* helpers: dial, send the assembled
/// stream, half-close, read the status line.
std::optional<stream_stats> finish_stream(const socket_addr& addr, const std::string& bytes,
                                          stream_stats stats, std::string& err) {
    const int fd = dial(addr, err);
    if (fd < 0) return std::nullopt;
    if (!write_all(fd, bytes)) {
        err = "short write streaming to " + addr.to_string();
        ::close(fd);
        return std::nullopt;
    }
    ::shutdown(fd, SHUT_WR);
    std::string reply;
    if (!read_all(fd, reply, 4096)) {
        err = "reading status line from " + addr.to_string() + " failed";
        ::close(fd);
        return std::nullopt;
    }
    ::close(fd);
    while (!reply.empty() && (reply.back() == '\n' || reply.back() == '\r')) reply.pop_back();
    if (reply.empty()) {
        err = "server closed the stream without a status line";
        return std::nullopt;
    }
    stats.status = std::move(reply);
    return stats;
}

}  // namespace

std::string frame_record(persist::record_type type, std::string_view payload) {
    std::string out;
    out.reserve(persist::record_header_bytes + payload.size());
    out.push_back(static_cast<char>(type));
    put_u32(out, static_cast<std::uint32_t>(payload.size()));
    put_u32(out, persist::crc32c(payload));
    out += payload;
    return out;
}

void wire_decoder::fail(std::string reason) {
    corrupt_ = true;
    reason_ = std::move(reason);
}

void wire_decoder::feed(std::string_view bytes) {
    if (corrupt_) return;
    buf_ += bytes;
    // Reclaim consumed prefix once it dominates the buffer.
    if (pos_ > 1u << 20 && pos_ > buf_.size() / 2) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
}

std::optional<persist::journal_record> wire_decoder::next() {
    if (corrupt_) return std::nullopt;
    if (!seen_magic_) {
        if (buf_.size() - pos_ < persist::journal_magic.size()) return std::nullopt;
        if (std::string_view(buf_).substr(pos_, persist::journal_magic.size()) !=
            persist::journal_magic) {
            fail("bad stream magic");
            return std::nullopt;
        }
        pos_ += persist::journal_magic.size();
        seen_magic_ = true;
    }
    if (buf_.size() - pos_ < persist::record_header_bytes) return std::nullopt;
    const char* header = buf_.data() + pos_;
    const auto type = static_cast<persist::record_type>(static_cast<unsigned char>(header[0]));
    const std::uint32_t len = load_u32(header + 1);
    const std::uint32_t crc = load_u32(header + 5);
    if (type != persist::record_type::batch && type != persist::record_type::tick &&
        type != persist::record_type::finish) {
        fail("unknown record type " + std::to_string(static_cast<unsigned char>(header[0])));
        return std::nullopt;
    }
    if (len > max_payload_bytes) {
        fail("payload length " + std::to_string(len) + " exceeds limit");
        return std::nullopt;
    }
    if (buf_.size() - pos_ < persist::record_header_bytes + len) return std::nullopt;
    const std::string_view payload(buf_.data() + pos_ + persist::record_header_bytes, len);
    if (persist::crc32c(payload) != crc) {
        fail("payload CRC mismatch");
        return std::nullopt;
    }
    persist::journal_record record;
    record.type = type;
    if (type == persist::record_type::batch) {
        if (!persist::decode_batch_payload(payload, record.batch)) {
            fail("malformed batch payload");
            return std::nullopt;
        }
    } else if (!persist::decode_barrier_payload(payload, record.now)) {
        fail("barrier payload size mismatch");
        return std::nullopt;
    }
    pos_ += persist::record_header_bytes + len;
    ++records_;
    return record;
}

std::optional<stream_stats> stream_trace(const socket_addr& addr,
                                         std::span<const traced_alert> alerts,
                                         sim_duration tick_every, sim_duration finish_grace,
                                         std::string& err) {
    std::string bytes{persist::journal_magic};
    stream_stats stats;
    std::string payload;
    std::vector<traced_alert> batch;
    auto flush_batch = [&] {
        if (batch.empty()) return;
        persist::encode_batch_payload(payload, batch);
        bytes += frame_record(persist::record_type::batch, payload);
        ++stats.records;
        stats.alerts += batch.size();
        batch.clear();
    };
    sim_time last_tick = 0;
    sim_time last_arrival = 0;
    for (const traced_alert& t : alerts) {
        batch.push_back(t);
        last_arrival = t.arrival;
        if (t.arrival - last_tick >= tick_every) {
            flush_batch();
            bytes += frame_record(persist::record_type::tick,
                                  persist::encode_barrier_payload(t.arrival));
            ++stats.records;
            last_tick = t.arrival;
        }
    }
    flush_batch();
    bytes += frame_record(persist::record_type::finish,
                          persist::encode_barrier_payload(last_arrival + finish_grace));
    ++stats.records;
    return finish_stream(addr, bytes, stats, err);
}

std::optional<stream_stats> stream_records(const socket_addr& addr,
                                           std::span<const persist::journal_record> records,
                                           bool append_finish_if_missing,
                                           sim_duration finish_grace, std::string& err) {
    std::string bytes{persist::journal_magic};
    stream_stats stats;
    std::string payload;
    sim_time last_time = 0;
    bool finished = false;
    for (const persist::journal_record& record : records) {
        if (record.type == persist::record_type::batch) {
            persist::encode_batch_payload(payload, record.batch);
            bytes += frame_record(record.type, payload);
            stats.alerts += record.batch.size();
            for (const traced_alert& t : record.batch) {
                last_time = std::max(last_time, t.arrival);
            }
        } else {
            bytes += frame_record(record.type, persist::encode_barrier_payload(record.now));
            last_time = std::max(last_time, record.now);
            finished = record.type == persist::record_type::finish;
        }
        ++stats.records;
    }
    if (!finished && append_finish_if_missing) {
        bytes += frame_record(persist::record_type::finish,
                              persist::encode_barrier_payload(last_time + finish_grace));
        ++stats.records;
    }
    return finish_stream(addr, bytes, stats, err);
}

}  // namespace skynet::serve
