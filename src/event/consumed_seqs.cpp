#include "event/consumed_seqs.hpp"

#include <algorithm>

namespace spectre::event {

void ConsumedSeqs::grow(std::size_t words) {
    std::vector<std::uint64_t> next(std::bit_ceil(std::max<std::size_t>(words, 4)), 0);
    for (std::size_t i = 0; i < used_; ++i) next[i] = ring_[(head_ + i) & mask()];
    ring_.swap(next);
    head_ = 0;
}

void ConsumedSeqs::insert(Seq seq) {
    if (seq < floor_) return;
    const Seq word_base = seq & ~kWordMask;
    if (count_ == 0) {
        // Nothing live: re-anchor at this word instead of spanning the gap.
        base_ = word_base;
        head_ = 0;
        used_ = 0;
    } else if (seq < base_) {
        // Below a re-anchored base but above the floor: prepend zero words.
        const std::size_t extra = static_cast<std::size_t>((base_ - word_base) >> kWordShift);
        if (used_ + extra > ring_.size()) grow(used_ + extra);
        head_ = (head_ + ring_.size() - extra) & mask();
        used_ += extra;
        base_ = word_base;
    }
    const std::size_t off = static_cast<std::size_t>((seq - base_) >> kWordShift);
    if (off >= used_) {
        if (off >= ring_.size()) grow(off + 1);
        used_ = off + 1;
    }
    std::uint64_t& word = ring_[(head_ + off) & mask()];
    const std::uint64_t bit = std::uint64_t{1} << (seq & kWordMask);
    if ((word & bit) == 0) {
        word |= bit;
        ++count_;
    }
}

void ConsumedSeqs::drop_below(Seq seq) {
    if (seq <= floor_) return;
    floor_ = seq;
    if (seq <= base_) return;  // every live word sits at or above it
    const std::size_t words = static_cast<std::size_t>(
        std::min<Seq>((seq - base_) >> kWordShift, used_));
    for (std::size_t i = 0; i < words; ++i) {
        std::uint64_t& w = ring_[head_];
        count_ -= static_cast<std::size_t>(std::popcount(w));
        w = 0;
        head_ = (head_ + 1) & mask();
    }
    used_ -= words;
    base_ += Seq{words} << kWordShift;
    if (used_ == 0) {
        head_ = 0;
        base_ = seq & ~kWordMask;
        return;
    }
    // The floor may cut the new head word: clear the bits below it.
    const std::uint64_t below = (std::uint64_t{1} << (seq & kWordMask)) - 1;
    std::uint64_t& w = ring_[head_];
    count_ -= static_cast<std::size_t>(std::popcount(w & below));
    w &= ~below;
}

}  // namespace spectre::event
