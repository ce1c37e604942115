#pragma once

/// The binary codec every persist format that carries reports shares:
/// checkpoints (snapshot v2) and federation digests.
///
/// Writing appends little-endian primitives to a std::string; doubles
/// travel as their 64-bit patterns, so every value round-trips exactly.
/// Reading goes through `reader`, which checks every read against the
/// bytes left and latches: the first failure keeps its reason, and every
/// later read returns zero or empty, so callers can decode a whole
/// section and check once. Element counts are checked against the bytes
/// left before anything is reserved or resized.
///
/// Locations travel by reference into a path dictionary written once per
/// payload: each entry is (parent index, last segment), index 0 is the
/// implicit root, and parents precede their children. A snapshot seeds
/// the dictionary with the location table in id order, so an alert's
/// reference is its own location id; a digest builds its own, because
/// ids are table-local.

#include <bit>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "skynet/common/shared_list.h"
#include "skynet/core/pipeline.h"

namespace skynet::persist::codec {

// ---------------------------------------------------------------- primitives

inline void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

inline void put_u32(std::string& out, std::uint32_t v) {
    const char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                       static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
    out.append(b, 4);
}

inline void put_u64(std::string& out, std::uint64_t v) {
    put_u32(out, static_cast<std::uint32_t>(v));
    put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

inline void put_i64(std::string& out, std::int64_t v) {
    put_u64(out, static_cast<std::uint64_t>(v));
}

inline void put_double(std::string& out, double v) {
    put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// u32 length, then the bytes.
inline void put_str(std::string& out, std::string_view s) {
    put_u32(out, static_cast<std::uint32_t>(s.size()));
    out.append(s);
}

/// Little-endian u32 at `p` (frame headers, CRC trailers).
[[nodiscard]] inline std::uint32_t load_u32(const char* p) noexcept {
    const auto* b = reinterpret_cast<const unsigned char*>(p);
    return static_cast<std::uint32_t>(b[0]) | (static_cast<std::uint32_t>(b[1]) << 8) |
           (static_cast<std::uint32_t>(b[2]) << 16) | (static_cast<std::uint32_t>(b[3]) << 24);
}

/// Latching, bounds-checked little-endian reader.
class reader {
public:
    explicit reader(std::string_view bytes) noexcept : bytes_(bytes) {}

    std::uint8_t u8() { return take(1) ? static_cast<std::uint8_t>(bytes_[pos_++]) : 0; }
    std::uint32_t u32() {
        if (!take(4)) return 0;
        const std::uint32_t v = load_u32(bytes_.data() + pos_);
        pos_ += 4;
        return v;
    }
    std::uint64_t u64() {
        const std::uint64_t lo = u32();
        return lo | (static_cast<std::uint64_t>(u32()) << 32);
    }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double dbl() { return std::bit_cast<double>(u64()); }
    bool flag() {
        const std::uint8_t v = u8();
        return v <= 1 ? v == 1 : fail("bad flag " + std::to_string(v));
    }
    std::string_view str() {
        const std::uint32_t len = u32();
        if (!take(len)) return {};
        const std::string_view s = bytes_.substr(pos_, len);
        pos_ += len;
        return s;
    }

    /// `n` when n elements of at least `min_bytes` each fit in the bytes
    /// left; otherwise fails (0), so no hostile count reaches reserve().
    std::size_t bounded(std::uint64_t n, std::size_t min_bytes) {
        if (ok() && n > remaining() / min_bytes) {
            fail("count " + std::to_string(n) + " exceeds the " + std::to_string(remaining()) +
                 " bytes left");
        }
        return ok() ? static_cast<std::size_t>(n) : 0;
    }
    /// A u64 element count, checked as bounded() does.
    std::size_t count(std::size_t min_bytes) { return bounded(u64(), min_bytes); }

    /// Latches the first failure, prefixed with its byte offset; always
    /// returns false.
    bool fail(const std::string& reason);

    [[nodiscard]] bool ok() const noexcept { return err_.empty(); }
    [[nodiscard]] const std::string& error() const noexcept { return err_; }
    [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

private:
    bool take(std::size_t n) {
        if (ok() && remaining() >= n) return true;
        return fail("truncated");
    }

    std::string_view bytes_;
    std::size_t pos_{0};
    std::string err_;
};

// ---------------------------------------------------------------- paths

/// One path dictionary entry: the path is its parent's plus `segment`.
struct path_entry {
    std::uint32_t parent{0};
    std::string segment;

    friend bool operator==(const path_entry&, const path_entry&) = default;
};

/// Reference of an absent optional location.
inline constexpr std::uint32_t no_path = 0xffffffffu;

/// Encoder side of a path dictionary.
class path_writer {
public:
    /// Entries 1..seed.size() are `seed`, which must outlive the writer.
    explicit path_writer(std::span<const path_entry> seed = {}) : seed_(seed) {}

    /// Index of `loc`, appending entries for any missing step. A `hint`
    /// naming the same path (the alert's own location id, in a snapshot)
    /// is taken after an O(depth) check, without hashing.
    std::uint32_t ref(const location& loc, location_id hint = invalid_location_id);

    /// Entry count, then every entry (seed first).
    void put(std::string& out) const;

private:
    struct key_hash {
        std::size_t operator()(const std::pair<std::uint32_t, std::string_view>& k) const noexcept {
            return std::hash<std::string_view>{}(k.second) ^ (k.first * 0x9e3779b97f4a7c15ULL);
        }
    };

    [[nodiscard]] std::size_t size() const noexcept { return seed_.size() + added_.size(); }
    [[nodiscard]] const path_entry& at(std::uint32_t index) const {
        return index <= seed_.size() ? seed_[index - 1] : added_[index - 1 - seed_.size()];
    }

    std::span<const path_entry> seed_;
    std::deque<path_entry> added_;  ///< stable addresses: the index keys view them
    /// (parent, segment) -> index, built on the first lookup a hint misses.
    std::unordered_map<std::pair<std::uint32_t, std::string_view>, std::uint32_t, key_hash>
        children_;
    std::size_t indexed_{0};
};

/// Decoder side: reads a dictionary and materializes the paths that
/// references name, each once.
class path_reader {
public:
    /// Deeper paths are rejected, so a crafted chain cannot amplify.
    static constexpr std::size_t max_depth = 64;

    /// Reads what path_writer::put wrote; parents must precede children.
    bool read(reader& in);

    /// The path `ref` names; fails `in` on an out-of-range reference.
    const location& get(reader& in, std::uint32_t ref);
    std::optional<location> get_optional(reader& in, std::uint32_t ref);

    [[nodiscard]] const std::vector<path_entry>& entries() const noexcept { return entries_; }

private:
    const location& path(std::uint32_t index);

    std::vector<path_entry> entries_;
    std::vector<location> paths_;
    std::vector<std::uint8_t> built_;
};

// ---------------------------------------------------------------- layouts

/// Writes fields in the codec's encoding. The *_fields layouts drive an
/// encoder or a decoder with the same calls, so the two directions share
/// one field order and cannot drift apart.
struct encoder {
    std::string& out;
    path_writer& paths;

    template <typename T> void u8(T v) { put_u8(out, static_cast<std::uint8_t>(v)); }
    template <typename T> void u32(T v) { put_u32(out, static_cast<std::uint32_t>(v)); }
    template <typename T> void u64(T v) { put_u64(out, static_cast<std::uint64_t>(v)); }
    template <typename T> void i64(T v) { put_i64(out, static_cast<std::int64_t>(v)); }
    void dbl(double v) { put_double(out, v); }
    void flag(bool v) { put_u8(out, v ? 1 : 0); }
    void str(std::string_view s) { put_str(out, s); }
    void path(const location& loc, location_id hint) { put_u32(out, paths.ref(loc, hint)); }
    void path(const std::optional<location>& loc, location_id hint) {
        put_u32(out, loc ? paths.ref(*loc, hint) : no_path);
    }
    template <typename T, typename F> void maybe(const std::optional<T>& v, F&& each) {
        flag(v.has_value());
        if (v) each(*v);
    }
    template <typename T, typename F> void list(const std::vector<T>& v, std::size_t, F&& each) {
        put_u64(out, v.size());
        for (const T& x : v) each(x);
    }
    template <typename T, typename F>
    void list(const shared_list<T>& v, std::size_t min_bytes, F&& each) {
        list(v.vec(), min_bytes, each);
    }
    /// A count the decoder must find unchanged (fixed-size arrays).
    void fixed(std::size_t n, const char*) { put_u64(out, n); }
    void check(bool, const char*) {}
};

/// Reads what an encoder wrote through the same layout.
struct decoder {
    reader& in;
    path_reader& paths;

    template <typename T> void u8(T& v) { v = static_cast<T>(in.u8()); }
    template <typename T> void u32(T& v) { v = static_cast<T>(in.u32()); }
    template <typename T> void u64(T& v) { v = static_cast<T>(in.u64()); }
    template <typename T> void i64(T& v) { v = static_cast<T>(in.i64()); }
    void dbl(double& v) { v = in.dbl(); }
    void flag(bool& v) { v = in.flag(); }
    void str(std::string& s) { s = in.str(); }
    void path(location& loc, location_id) { loc = paths.get(in, in.u32()); }
    void path(std::optional<location>& loc, location_id) {
        loc = paths.get_optional(in, in.u32());
    }
    template <typename T, typename F> void maybe(std::optional<T>& v, F&& each) {
        v.reset();
        if (!in.flag()) return;
        T x{};
        each(x);
        v = x;
    }
    /// Resizes `v` to a count checked against the bytes left, given each
    /// element's smallest encoding.
    template <typename T, typename F>
    void list(std::vector<T>& v, std::size_t min_bytes, F&& each) {
        v.clear();
        v.resize(in.count(min_bytes));
        for (T& x : v) {
            if (!in.ok()) return;
            each(x);
        }
    }
    template <typename T, typename F>
    void list(shared_list<T>& v, std::size_t min_bytes, F&& each) {
        std::vector<T> items;
        list(items, min_bytes, each);
        v = std::move(items);
    }
    void fixed(std::size_t n, const char* what) {
        if (in.u64() != n) in.fail(std::string(what) + " mismatch");
    }
    void check(bool ok, const char* what) {
        if (!ok) in.fail(what);
    }
};

/// Smallest encodings, for checking element counts.
inline constexpr std::size_t min_alert_bytes = 67;
inline constexpr std::size_t severity_bytes = 64;
inline constexpr std::size_t min_incident_bytes = 41;
inline constexpr std::size_t min_report_bytes = 5 + severity_bytes + min_incident_bytes;

template <typename Io, typename Alert> void alert_fields(Io& io, Alert& a) {
    io.u32(a.type);
    io.str(a.type_name);
    io.u8(a.source);
    io.u8(a.category);
    io.check(static_cast<std::size_t>(a.source) < data_source_count &&
                 a.category <= alert_category::root_cause,
             "bad alert source or category");
    io.i64(a.when.begin);
    io.i64(a.when.end);
    io.path(a.loc, a.loc_id);
    io.u32(a.loc_id);
    io.i64(a.count);
    io.dbl(a.metric);
    io.maybe(a.device, [&](auto& d) { io.u32(d); });
    io.path(a.src_loc, a.src_id);
    io.path(a.dst_loc, a.dst_id);
    io.u32(a.src_id);
    io.u32(a.dst_id);
}

template <typename Io, typename Severity> void severity_fields(Io& io, Severity& s) {
    io.dbl(s.impact_factor);
    io.dbl(s.time_factor);
    io.dbl(s.score);
    io.dbl(s.avg_ping_loss);
    io.dbl(s.max_sla_overload);
    io.i64(s.important_customers);
    io.i64(s.duration);
    io.i64(s.circuit_sets);
}

template <typename Io, typename Incident> void incident_fields(Io& io, Incident& inc) {
    io.u64(inc.id);
    io.path(inc.root, inc.root_id);
    io.u32(inc.root_id);
    io.i64(inc.when.begin);
    io.i64(inc.when.end);
    io.flag(inc.closed);
    io.list(inc.alerts, min_alert_bytes, [&](auto& a) { alert_fields(io, a); });
}

template <typename Io, typename Report> void report_fields(Io& io, Report& r) {
    io.flag(r.actionable);
    io.path(r.zoomed, invalid_location_id);
    severity_fields(io, r.severity);
    incident_fields(io, r.inc);
}

}  // namespace skynet::persist::codec
