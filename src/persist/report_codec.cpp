#include "skynet/persist/report_codec.h"

namespace skynet::persist::codec {

bool reader::fail(const std::string& reason) {
    if (err_.empty()) err_ = "byte " + std::to_string(pos_) + ": " + reason;
    return false;
}

// ---------------------------------------------------------------- paths

std::uint32_t path_writer::ref(const location& loc, location_id hint) {
    const std::vector<std::string>& segs = loc.segments();
    if (hint != invalid_location_id && hint <= size()) {
        std::uint32_t at_index = hint;
        auto seg = segs.rbegin();
        for (; seg != segs.rend() && at_index != 0 && at(at_index).segment == *seg; ++seg) {
            at_index = at(at_index).parent;
        }
        if (seg == segs.rend() && at_index == 0) return hint;
    }
    for (; indexed_ < size(); ++indexed_) {
        const path_entry& e = at(static_cast<std::uint32_t>(indexed_ + 1));
        children_.emplace(std::pair{e.parent, std::string_view(e.segment)},
                          static_cast<std::uint32_t>(indexed_ + 1));
    }
    std::uint32_t index = 0;
    for (const std::string& seg : segs) {
        const auto it = children_.find(std::pair{index, std::string_view(seg)});
        if (it != children_.end()) {
            index = it->second;
            continue;
        }
        added_.push_back(path_entry{index, seg});
        index = static_cast<std::uint32_t>(size());
        children_.emplace(std::pair{added_.back().parent, std::string_view(added_.back().segment)},
                          index);
        indexed_ = size();
    }
    return index;
}

void path_writer::put(std::string& out) const {
    put_u64(out, size());
    for (std::size_t i = 1; i <= size(); ++i) {
        const path_entry& e = at(static_cast<std::uint32_t>(i));
        put_u32(out, e.parent);
        put_str(out, e.segment);
    }
}

bool path_reader::read(reader& in) {
    const std::size_t n = in.count(8);
    entries_.resize(n);
    std::vector<std::uint8_t> depth(n + 1, 0);
    for (std::size_t i = 1; i <= n && in.ok(); ++i) {
        path_entry& e = entries_[i - 1];
        e.parent = in.u32();
        e.segment = in.str();
        if (e.parent >= i || depth[e.parent] >= max_depth) {
            return in.fail("path entry " + std::to_string(i) +
                           (e.parent >= i ? " precedes its parent" : " is too deep"));
        }
        depth[i] = static_cast<std::uint8_t>(depth[e.parent] + 1);
    }
    paths_.assign(n + 1, location{});
    built_.assign(n + 1, 0);
    built_[0] = 1;
    return in.ok();
}

const location& path_reader::path(std::uint32_t index) {
    if (!built_[index]) {
        const path_entry& e = entries_[index - 1];
        paths_[index] = path(e.parent).child(e.segment);
        built_[index] = 1;
    }
    return paths_[index];
}

const location& path_reader::get(reader& in, std::uint32_t ref) {
    if (ref < paths_.size()) return path(ref);
    in.fail("bad path reference " + std::to_string(ref));
    static const location root;
    return root;
}

std::optional<location> path_reader::get_optional(reader& in, std::uint32_t ref) {
    if (ref == no_path) return std::nullopt;
    return get(in, ref);
}

}  // namespace skynet::persist::codec
