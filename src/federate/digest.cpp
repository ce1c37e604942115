#include "skynet/federate/digest.h"

#include <sys/stat.h>

#include "skynet/persist/crc32c.h"
#include "skynet/persist/journal.h"
#include "skynet/persist/report_codec.h"

namespace skynet::federate {

namespace codec = persist::codec;

namespace {

/// Header fields, then the path dictionary (location ids are table-local,
/// so every payload carries its own), then the reports.
template <typename Io, typename Digest> void header_fields(Io& io, Digest& d) {
    io.str(d.region);
    io.u64(d.seq);
    io.i64(d.barrier);
    io.flag(d.finish);
}

template <typename Io, typename Digest> void report_list(Io& io, Digest& d) {
    io.list(d.reports, codec::min_report_bytes, [&](auto& r) { codec::report_fields(io, r); });
}

}  // namespace

std::string encode_digest_payload(const region_digest& d) {
    codec::path_writer paths;
    std::string reports;
    codec::encoder reports_io{reports, paths};
    report_list(reports_io, d);
    std::string out;
    codec::encoder io{out, paths};
    header_fields(io, d);
    paths.put(out);
    return out + reports;
}

bool decode_digest_payload(std::string_view payload, region_digest& d, std::string& err) {
    codec::reader in(payload);
    codec::path_reader paths;
    codec::decoder io{in, paths};
    header_fields(io, d);
    if (in.ok() && d.region.empty()) in.fail("digest with empty region");
    paths.read(in);
    report_list(io, d);
    if (in.ok() && in.remaining() != 0) in.fail("trailing bytes after digest reports");
    err = in.error();
    return in.ok();
}

std::string frame_fed_record(fed_record type, std::string_view payload) {
    std::string out;
    out.reserve(persist::record_header_bytes + payload.size());
    out.push_back(static_cast<char>(type));
    codec::put_u32(out, static_cast<std::uint32_t>(payload.size()));
    codec::put_u32(out, persist::crc32c(payload));
    out += payload;
    return out;
}

void fed_decoder::fail(std::string reason) {
    corrupt_ = true;
    reason_ = std::move(reason);
}

void fed_decoder::feed(std::string_view bytes) {
    if (corrupt_) return;
    buf_ += bytes;
    if (pos_ > 1u << 20 && pos_ > buf_.size() / 2) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
}

std::optional<fed_frame> fed_decoder::next() {
    if (corrupt_) return std::nullopt;
    if (!seen_magic_) {
        if (buf_.size() - pos_ < fed_magic.size()) return std::nullopt;
        const std::string_view magic = std::string_view(buf_).substr(pos_, fed_magic.size());
        if (magic != fed_magic) {
            fail(magic.starts_with(fed_magic.substr(0, 7))
                     ? "federation protocol version mismatch: peer sent " + std::string(magic)
                     : std::string("bad federation magic"));
            return std::nullopt;
        }
        pos_ += fed_magic.size();
        seen_magic_ = true;
    }
    if (buf_.size() - pos_ < persist::record_header_bytes) return std::nullopt;
    const char* header = buf_.data() + pos_;
    const auto type = static_cast<fed_record>(static_cast<unsigned char>(header[0]));
    const std::uint32_t len = codec::load_u32(header + 1);
    const std::uint32_t crc = codec::load_u32(header + 5);
    if (type != fed_record::hello && type != fed_record::digest) {
        fail("unknown federation record type " +
             std::to_string(static_cast<unsigned char>(header[0])));
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
    fed_frame frame;
    frame.type = type;
    frame.payload = std::string(payload);
    pos_ += persist::record_header_bytes + len;
    ++frames_;
    return frame;
}

digest_journal_read read_digest_journal(const std::string& path) {
    digest_journal_read result;
    const std::optional<std::string> file = persist::read_file(path);
    if (!file) {
        result.missing = true;
        return result;
    }
    const std::string& bytes = *file;

    auto truncate_at = [&](std::uint64_t at, std::string reason) {
        result.valid_bytes = at;
        result.truncated_tail_bytes = bytes.size() - at;
        result.truncation_reason = std::move(reason);
        return result;
    };

    if (!std::string_view(bytes).starts_with(fed_magic)) {
        // An empty or headerless file is a torn-at-byte-zero journal, and
        // one of another format version cannot be decoded: drop
        // everything, the writer re-creates the magic.
        return truncate_at(0, std::string_view(bytes).starts_with(fed_magic.substr(0, 7))
                                  ? "digest journal of another format version"
                                  : "missing digest journal magic");
    }

    std::size_t pos = fed_magic.size();
    while (true) {
        if (pos == bytes.size()) break;  // clean end
        if (bytes.size() - pos < persist::record_header_bytes) {
            return truncate_at(pos, "torn record header");
        }
        const char* header = bytes.data() + pos;
        const auto type = static_cast<fed_record>(static_cast<unsigned char>(header[0]));
        const std::uint32_t len = codec::load_u32(header + 1);
        const std::uint32_t crc = codec::load_u32(header + 5);
        if (type != fed_record::digest) {
            return truncate_at(pos, "unexpected record type in digest journal");
        }
        if (len > fed_decoder::max_payload_bytes ||
            bytes.size() - pos - persist::record_header_bytes < len) {
            return truncate_at(pos, "payload overruns the file");
        }
        const std::string_view payload(bytes.data() + pos + persist::record_header_bytes, len);
        if (persist::crc32c(payload) != crc) {
            return truncate_at(pos, "payload CRC mismatch");
        }
        region_digest d;
        std::string err;
        if (!decode_digest_payload(payload, d, err)) {
            return truncate_at(pos, "undecodable digest: " + err);
        }
        result.digests.push_back(std::move(d));
        pos += persist::record_header_bytes + len;
    }
    result.valid_bytes = pos;
    return result;
}

digest_journal_writer::digest_journal_writer(const std::string& path) {
    file_ = std::fopen(path.c_str(), "ab");
    if (file_ == nullptr) {
        throw skynet_error("digest journal: cannot open " + path);
    }
    struct stat st{};
    const bool fresh = ::fstat(::fileno(file_), &st) != 0 || st.st_size == 0;
    if (fresh) {
        if (std::fwrite(fed_magic.data(), 1, fed_magic.size(), file_) != fed_magic.size()) {
            std::fclose(file_);
            file_ = nullptr;
            throw skynet_error("digest journal: cannot write magic to " + path);
        }
        std::fflush(file_);
        offset_ = fed_magic.size();
    } else {
        offset_ = static_cast<std::uint64_t>(st.st_size);
    }
}

digest_journal_writer::~digest_journal_writer() {
    if (file_ != nullptr) {
        std::fflush(file_);
        std::fclose(file_);
    }
}

void digest_journal_writer::append_frame(std::string_view frame) {
    if (file_ == nullptr) return;
    if (std::fwrite(frame.data(), 1, frame.size(), file_) == frame.size()) {
        offset_ += frame.size();
    }
    std::fflush(file_);
}

}  // namespace skynet::federate
