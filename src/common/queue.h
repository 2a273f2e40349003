/**
 * @file
 * Fixed-capacity FIFO queue.
 *
 * The paper's prefetch engine uses several small bounded queues (SeqQueue,
 * DisQueue, RLUQueue, the prefetch queue in front of the L1i ports).  This
 * container enforces the capacity: pushes beyond capacity are rejected so
 * the hardware limit is modeled, not papered over.
 *
 * Storage is a power-of-two ring sized once at construction -- these
 * queues are pushed/popped every simulated cycle, and the previous
 * std::deque backing paid node allocations on the hot path.
 */

#ifndef DCFB_COMMON_QUEUE_H
#define DCFB_COMMON_QUEUE_H

#include <bit>
#include <cassert>
#include <cstddef>
#include <iterator>
#include <type_traits>
#include <vector>

namespace dcfb {

/**
 * Bounded FIFO with explicit overflow signaling.
 */
template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(std::size_t capacity)
        : cap(capacity), ring(std::bit_ceil(capacity ? capacity : 1)),
          mask(ring.size() - 1)
    {
    }

    /** Append @p value; returns false (dropping it) when full. */
    bool
    push(const T &value)
    {
        if (count >= cap)
            return false;
        ring[(head + count) & mask] = value;
        ++count;
        return true;
    }

    /** Front element; queue must be non-empty. */
    const T &
    front() const
    {
        assert(count > 0);
        return ring[head];
    }

    /** Remove the front element; queue must be non-empty. */
    void
    pop()
    {
        assert(count > 0);
        // Drop owning payloads (strings, vectors) eagerly; trivial
        // elements are left in place -- the next push overwrites them.
        if constexpr (!std::is_trivially_destructible_v<T>)
            ring[head] = T{};
        head = (head + 1) & mask;
        --count;
    }

    bool empty() const { return count == 0; }
    bool full() const { return count >= cap; }
    std::size_t size() const { return count; }
    std::size_t capacity() const { return cap; }

    void
    clear()
    {
        while (count > 0)
            pop();
    }

    /** Forward const iterator, oldest to newest (draining logic,
     *  invariant sweeps and tests iterate queues in FIFO order). */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = const T *;
        using reference = const T &;

        const_iterator() = default;

        reference
        operator*() const
        {
            return q->ring[(q->head + pos) & q->mask];
        }

        pointer operator->() const { return &**this; }

        const_iterator &
        operator++()
        {
            ++pos;
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator tmp = *this;
            ++pos;
            return tmp;
        }

        bool
        operator==(const const_iterator &other) const
        {
            return pos == other.pos;
        }

      private:
        friend class BoundedQueue;
        const_iterator(const BoundedQueue *queue, std::size_t position)
            : q(queue), pos(position)
        {
        }

        const BoundedQueue *q = nullptr;
        std::size_t pos = 0;
    };

    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, count); }

  private:
    std::size_t cap;
    std::vector<T> ring;
    std::size_t mask;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace dcfb

#endif // DCFB_COMMON_QUEUE_H
