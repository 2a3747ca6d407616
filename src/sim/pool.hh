/**
 * @file
 * Containers for the allocation-free timed path. Both allocate only
 * when they grow past their high-water mark, so once a run's timed
 * warm-up has sized them, steady-state simulation never calls the
 * allocator through them.
 */

#ifndef TLSIM_SIM_POOL_HH
#define TLSIM_SIM_POOL_HH

#include <algorithm>
#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

namespace tlsim
{

/**
 * A pool of records with stable addresses: per-request transaction
 * state, pooled events. A record stays where it is for the pool's
 * lifetime, so a continuation may hold a plain pointer to it.
 */
template <typename T>
class Pool
{
  public:
    /**
     * A free record, or a new one built from @p args when none is
     * free. The arguments are used only then: a reused record keeps
     * what its last user left in it, so callers set every field they
     * later read.
     */
    template <typename... Args>
    T *
    acquire(Args &&...args)
    {
        if (freeList.empty())
            return &items.emplace_back(std::forward<Args>(args)...);
        T *item = freeList.back();
        freeList.pop_back();
        return item;
    }

    /** Return @p item (acquired from this pool) for reuse. */
    void release(T *item) { freeList.push_back(item); }

  private:
    std::deque<T> items;
    std::vector<T *> freeList;
};

/**
 * A first-in first-out queue on a power-of-two ring. Unlike
 * std::deque, which allocates and frees a chunk every few hundred
 * bytes of traffic, the ring reallocates only to grow. T must be
 * default-constructible and move-assignable.
 */
template <typename T>
class Fifo
{
  public:
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    T &front() { return slots[head]; }

    void
    push_back(T value)
    {
        if (count == slots.size())
            grow();
        slots[(head + count) & (slots.size() - 1)] = std::move(value);
        ++count;
    }

    /** Drop the front element, releasing whatever it still holds. */
    void
    pop_front()
    {
        slots[head] = T{};
        head = (head + 1) & (slots.size() - 1);
        --count;
    }

  private:
    void
    grow()
    {
        std::vector<T> bigger(std::max<std::size_t>(8, 2 * slots.size()));
        for (std::size_t i = 0; i < count; ++i)
            bigger[i] = std::move(slots[(head + i) & (slots.size() - 1)]);
        slots.swap(bigger);
        head = 0;
    }

    std::vector<T> slots;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace tlsim

#endif // TLSIM_SIM_POOL_HH
