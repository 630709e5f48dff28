/**
 * @file
 * Structured spawn/sync.
 *
 * A TaskGroup plays the role of a Cilk frame's sync scope: spawned
 * tasks report completion to their group, and wait() returns when all
 * of them (including transitively inlined ones) have finished. A
 * worker blocked in wait() does not idle — it keeps scheduling other
 * tasks (its own deque first, then stealing), exactly like a Cilk
 * worker at a sync point.
 */

#ifndef HERMES_RUNTIME_TASK_GROUP_HPP
#define HERMES_RUNTIME_TASK_GROUP_HPP

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>

#include "runtime/task_fn.hpp"

namespace hermes::runtime {

class Runtime;

/** Completion scope for a set of spawned tasks. */
class TaskGroup
{
  public:
    /** Bind to the runtime that will execute the tasks. */
    explicit TaskGroup(Runtime &rt) : rt_(rt) {}

    /**
     * All tasks must be awaited before destruction. The group may be
     * destroyed as soon as wait() returns: once it has, no task of
     * the group touches the group again (finish() completes its last
     * access before any waiter can return), so a stack-resident
     * group can go out of scope and a new one reuse its storage.
     */
    ~TaskGroup();

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /**
     * Spawn `fn` into this group. From a worker thread the task is
     * pushed onto that worker's deque (or run inline if the deque is
     * full); from any other thread it is injected into the runtime.
     * Any callable converts to TaskFn; small trivially-copyable
     * lambdas — every spawn site in parallel.hpp — spawn without
     * allocating (task_fn.hpp).
     */
    void run(TaskFn fn);

    /**
     * Wait until every spawned task has completed. Worker threads
     * help execute pending work while waiting; external threads
     * block. Either way, after observing completion the waiter
     * acquires the group's mutex once, which orders it after the
     * last finish(). Rethrows the first exception thrown by any task
     * in this group.
     */
    void wait();

    /** Tasks spawned but not yet completed. */
    long pending() const
    {
        return pending_.load(std::memory_order_acquire);
    }

  private:
    friend class Runtime;

    /** Register one more task (before it becomes runnable). */
    void beginTask()
    {
        pending_.fetch_add(1, std::memory_order_relaxed);
    }

    /**
     * Mark one task complete; wakes external waiters at zero.
     * Decrements that leave tasks pending are lock-free; the one
     * that reaches zero happens under the mutex together with the
     * notify. When a waiter's wait() returns, finish() has made its
     * last access to the group.
     */
    void finish();

    /** Record the first exception observed in this group. */
    void recordException(std::exception_ptr error);

    Runtime &rt_;
    std::atomic<long> pending_{0};
    std::mutex mutex_;
    std::condition_variable cv_;
    std::exception_ptr error_;
};

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_TASK_GROUP_HPP
