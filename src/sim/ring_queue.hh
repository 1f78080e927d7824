/**
 * @file
 * A flat power-of-two ring buffer with deque-like front/back
 * semantics for trivially-copyable elements. std::deque allocates
 * and frees fixed-size blocks as elements flow through, which shows
 * up badly in interpreter hot loops that push and pop a few words
 * per simulated cycle; the ring reuses one contiguous allocation and
 * indexes with a mask. Grows by doubling (relinearizing the live
 * elements) when full, so a reserve() of the steady-state capacity
 * makes push/pop allocation-free for the rest of the queue's life.
 */

#ifndef TRIARCH_SIM_RING_QUEUE_HH
#define TRIARCH_SIM_RING_QUEUE_HH

#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

namespace triarch
{

template <typename T>
class RingQueue
{
  public:
    RingQueue() = default;

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    /** Oldest element; undefined when empty. */
    const T &front() const { return buf_[head_]; }
    T &front() { return buf_[head_]; }

    /** The @p i-th element from the front; undefined past size(). */
    const T &operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }
    T &operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }

    /** Ensure capacity for @p n elements without further growth. */
    void reserve(std::size_t n)
    {
        if (n > buf_.size())
            grow(std::bit_ceil(n));
    }

    void push_back(const T &v)
    {
        if (count_ == buf_.size()) [[unlikely]]
            grow(buf_.empty() ? 8 : buf_.size() * 2);
        buf_[(head_ + count_) & mask_] = v;
        ++count_;
    }

    template <typename... Args>
    void emplace_back(Args &&...args)
    {
        push_back(T(std::forward<Args>(args)...));
    }

    void pop_front()
    {
        head_ = (head_ + 1) & mask_;
        --count_;
    }

    void clear()
    {
        head_ = 0;
        count_ = 0;
    }

  private:
    /** Out of line, so push_back stays small enough to inline. */
    [[gnu::noinline]] void grow(std::size_t cap)
    {
        std::vector<T> next(cap);
        for (std::size_t i = 0; i < count_; ++i)
            next[i] = buf_[(head_ + i) & mask_];
        buf_ = std::move(next);
        mask_ = cap - 1;
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace triarch

#endif // TRIARCH_SIM_RING_QUEUE_HH
