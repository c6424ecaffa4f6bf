// ConsumedSeqs: the events a consumption policy removed from further pattern
// detection, kept only over the span that windows can still reach.
//
// Windows are processed (sequential engine) and opened (SPECTRE splitter) in
// start order, so a consumed seq below the first position of the next window
// can never be looked up again. The set therefore carries a moving floor:
// drop_below(seq) forgets everything under it, inserts under it are ignored,
// and contains() answers false there. What remains lives in a ring of 64-bit
// bitmap words addressed by offset from a word-aligned base, so its size is
// O(live span / 64) words — it grows only when the span between the floor
// and the highest consumed seq grows, never with the stream (DESIGN.md §6).
//
// Single-threaded: each engine owns its set.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "event/event.hpp"

namespace spectre::event {

class ConsumedSeqs {
public:
    // Adds `seq`; a no-op below the floor (nothing can read it any more).
    void insert(Seq seq);

    bool contains(Seq seq) const noexcept {
        if (seq < floor_ || seq < base_) return false;
        const Seq off = (seq - base_) >> kWordShift;
        if (off >= used_) return false;
        return (ring_[(head_ + off) & mask()] >> (seq & kWordMask)) & 1u;
    }

    // Raises the floor to `seq` (monotone; lower values are ignored) and
    // frees every word wholly below it.
    void drop_below(Seq seq);

    bool empty() const noexcept { return count_ == 0; }
    std::size_t size() const noexcept { return count_; }

    // Calls f(seq) for every member, ascending.
    template <class F>
    void for_each(F&& f) const {
        for (std::size_t i = 0; i < used_; ++i) {
            std::uint64_t w = ring_[(head_ + i) & mask()];
            while (w != 0) {
                f(base_ + (Seq{i} << kWordShift) + static_cast<Seq>(std::countr_zero(w)));
                w &= w - 1;
            }
        }
    }

    // Allocated bitmap words (a power of two): the set's memory footprint.
    std::size_t capacity_words() const noexcept { return ring_.size(); }

private:
    static constexpr unsigned kWordShift = 6;
    static constexpr Seq kWordMask = 63;

    std::size_t mask() const noexcept { return ring_.size() - 1; }
    // Reallocates to a power of two >= `words`, linearizing the live words.
    void grow(std::size_t words);

    // Invariant: every word outside the live range [head_, head_ + used_) is
    // zero, so extending the range never needs a clear.
    std::vector<std::uint64_t> ring_;
    std::size_t head_ = 0;  // ring index of the word holding base_
    std::size_t used_ = 0;  // live words from head_
    Seq base_ = 0;          // first seq of the head word (multiple of 64)
    Seq floor_ = 0;         // drop_below's watermark
    std::size_t count_ = 0;
};

}  // namespace spectre::event
