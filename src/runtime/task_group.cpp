#include "runtime/task_group.hpp"

#include <thread>
#include <utility>

#include "runtime/scheduler.hpp"
#include "util/assert.hpp"

namespace hermes::runtime {

// Completion and lifetime.
//
// A group usually lives on its waiter's stack (Runtime::run, the
// parallel.hpp helpers, a scenario's fork-join loop) or is deleted
// by the SubmitHandle deleter right after wait(). Once wait()
// returns, the caller may destroy the group, and the next group
// built at the same address reuses the same mutex and condvar
// storage. So the finisher's last access to the group must happen
// before any waiter can return:
//
//  - pending_ reaches zero only inside finish(), under mutex_, and
//    the notify happens in the same critical section. Non-final
//    decrements (pending_ > 1) stay lock-free; they leave the group
//    non-zero, so no waiter can return on them.
//  - every wait() path, after it observes zero, acquires mutex_
//    once before returning. That acquisition cannot succeed until
//    the finisher that wrote the zero has released the lock, and
//    the unlock is the finisher's last touch of the group.
//
// Without the handshake a waiter could observe zero between the
// finisher's decrement and its lock, and return while the finisher
// still had to lock and notify the group.

TaskGroup::~TaskGroup()
{
    HERMES_ASSERT(pending() == 0,
                  "TaskGroup destroyed with tasks still pending; "
                  "call wait() first");
}

void
TaskGroup::run(TaskFn fn)
{
    rt_.spawn(*this, std::move(fn));
}

void
TaskGroup::wait()
{
    Runtime *rt = Runtime::current();
    const core::WorkerId id = Runtime::currentWorker();

    std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
    if (rt == &rt_ && id != core::invalidWorker) {
        // A worker at a sync point keeps scheduling: its own deque
        // first (our children sit there), then stealing — the same
        // loop as Algorithm 2.1.
        while (pending_.load(std::memory_order_acquire) != 0) {
            if (!rt_.findAndExecute(id))
                std::this_thread::yield();
        }
        // Handshake: wait out the finisher that wrote the zero.
        lock.lock();
    } else {
        // The predicate runs under mutex_ and the zero is written
        // under mutex_, so cv_.wait returning (lock held) is itself
        // the handshake with the last finisher.
        lock.lock();
        cv_.wait(lock, [this] {
            return pending_.load(std::memory_order_acquire) == 0;
        });
    }
    std::exception_ptr error = std::exchange(error_, nullptr);
    lock.unlock();
    if (error)
        std::rethrow_exception(error);
}

void
TaskGroup::finish()
{
    // Lock-free while this decrement cannot reach zero.
    long n = pending_.load(std::memory_order_relaxed);
    while (n > 1) {
        if (pending_.compare_exchange_weak(n, n - 1,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed))
            return;
    }
    // Possibly the last task: the zero and its notify are written
    // under the lock (see above). A concurrent run() may have raised
    // pending_ since the load; the decrement then stays above zero.
    std::lock_guard<std::mutex> lock(mutex_);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        cv_.notify_all();
}

void
TaskGroup::recordException(std::exception_ptr error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_)
        error_ = std::move(error);
}

} // namespace hermes::runtime
