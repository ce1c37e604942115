// Copy-on-write list: copies share one buffer until one of them writes.
//
// The engine hands the same alert lists to many holders: an open incident
// and the report taken of it at a barrier, a main-tree node and the
// incident tree replicated from it, the live locator and the checkpoint
// exported from it. A shared_list makes those copies O(1) by sharing one
// reference-counted buffer. Reads go through a const, vector-like
// interface and never clone. Every write goes through edit() (push_back
// and reserve call it), which first detaches the list from every other
// holder, or through clear(), which lets a shared buffer go; so a copy
// taken earlier never sees a later write. There is no non-const iterator
// and no non-const operator[].
//
// Thread safety is a value type's: one list object is not used by two
// threads at once, but lists that share a buffer may be read, destroyed
// and written on different threads. The detach test, shared(), is an
// acquire load of the count, and every release is an acq_rel decrement,
// so the reads of the last other holder happen-before an in-place write.
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace skynet {

template <typename T>
class shared_list {
public:
    using const_iterator = typename std::vector<T>::const_iterator;

    shared_list() noexcept = default;
    shared_list(std::vector<T> items) : rep_(new rep{.items = std::move(items)}) {}
    shared_list(const shared_list& other) noexcept : rep_(other.rep_) {
        if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    shared_list(shared_list&& other) noexcept : rep_(std::exchange(other.rep_, nullptr)) {}
    shared_list& operator=(shared_list other) noexcept {
        std::swap(rep_, other.rep_);
        return *this;
    }
    ~shared_list() { release(); }

    /// The elements, read-only.
    [[nodiscard]] const std::vector<T>& vec() const noexcept {
        return rep_ != nullptr ? rep_->items : none_;
    }
    [[nodiscard]] const_iterator begin() const noexcept { return vec().begin(); }
    [[nodiscard]] const_iterator end() const noexcept { return vec().end(); }
    [[nodiscard]] const T* data() const noexcept { return vec().data(); }
    [[nodiscard]] std::size_t size() const noexcept { return vec().size(); }
    [[nodiscard]] bool empty() const noexcept { return vec().empty(); }
    [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return vec()[i]; }
    /// True while another list shares this one's buffer.
    [[nodiscard]] bool shared() const noexcept {
        return rep_ != nullptr && rep_->refs.load(std::memory_order_acquire) > 1;
    }

    /// The elements, writable. Copies the buffer first when another list
    /// shares it; an unshared buffer is written in place.
    std::vector<T>& edit() {
        if (rep_ == nullptr) {
            rep_ = new rep{};
        } else if (shared()) {
            rep* own = new rep{.items = rep_->items};
            release();
            rep_ = own;
        }
        return rep_->items;
    }
    void push_back(T value) { edit().push_back(std::move(value)); }
    void reserve(std::size_t n) { edit().reserve(n); }
    /// Empties the list; a shared buffer is let go rather than copied.
    void clear() noexcept {
        if (shared()) {
            release();
            rep_ = nullptr;
        } else if (rep_ != nullptr) {
            rep_->items.clear();
        }
    }

private:
    struct rep {
        std::atomic<std::size_t> refs{1};
        std::vector<T> items;
    };

    void release() noexcept {
        if (rep_ != nullptr && rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            delete rep_;
        }
    }

    /// What an unallocated list reads as (constant-initialized: no guard).
    static inline const std::vector<T> none_{};

    rep* rep_{nullptr};
};

}  // namespace skynet
