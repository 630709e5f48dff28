/** @file Unit tests for TaskGroup spawn/sync semantics. */

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/scheduler.hpp"
#include "runtime/task_group.hpp"
#include "util/time.hpp"

using namespace hermes;
using runtime::Runtime;
using runtime::RuntimeConfig;
using runtime::TaskGroup;

namespace {

Runtime &
sharedRuntime()
{
    static Runtime rt([] {
        RuntimeConfig cfg;
        cfg.numWorkers = 4;
        return cfg;
    }());
    return rt;
}

void
spinMicros(double us)
{
    const double end = util::nowSeconds() + us * 1e-6;
    while (util::nowSeconds() < end) {
    }
}

/** Spawn `n` short spinning tasks into `g`: long enough that idle
 * workers steal some, short enough that the last one to finish
 * usually completes right as the waiter polls. */
void
spawnSpinners(TaskGroup &g, int n, std::atomic<long> &done)
{
    for (int i = 0; i < n; ++i) {
        g.run([&done] {
            spinMicros(1.0);
            done.fetch_add(1, std::memory_order_relaxed);
        });
    }
}

} // namespace

TEST(TaskGroup, ExternalThreadSpawnAndWait)
{
    auto &rt = sharedRuntime();
    std::atomic<int> n{0};
    TaskGroup g(rt);
    for (int i = 0; i < 100; ++i)
        g.run([&] { n.fetch_add(1); });
    g.wait();
    EXPECT_EQ(n.load(), 100);
    EXPECT_EQ(g.pending(), 0);
}

TEST(TaskGroup, ReusableAfterWait)
{
    auto &rt = sharedRuntime();
    std::atomic<int> n{0};
    TaskGroup g(rt);
    g.run([&] { n.fetch_add(1); });
    g.wait();
    g.run([&] { n.fetch_add(1); });
    g.wait();
    EXPECT_EQ(n.load(), 2);
}

TEST(TaskGroup, WaitWithNothingSpawnedReturnsImmediately)
{
    auto &rt = sharedRuntime();
    TaskGroup g(rt);
    g.wait();
    SUCCEED();
}

TEST(TaskGroup, PendingVisibleDuringExecution)
{
    auto &rt = sharedRuntime();
    std::atomic<bool> release{false};
    TaskGroup g(rt);
    g.run([&] {
        while (!release.load(std::memory_order_acquire)) {
        }
    });
    EXPECT_GE(g.pending(), 1);
    release.store(true, std::memory_order_release);
    g.wait();
    EXPECT_EQ(g.pending(), 0);
}

TEST(TaskGroup, FirstExceptionWinsAndClears)
{
    auto &rt = sharedRuntime();
    TaskGroup g(rt);
    for (int i = 0; i < 4; ++i)
        g.run([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(g.wait(), std::runtime_error);
    // Error is consumed; the group can be reused cleanly.
    g.run([] {});
    g.wait();
    SUCCEED();
}

TEST(TaskGroup, WorkerWaitHelpsExecuteOtherTasks)
{
    auto &rt = sharedRuntime();
    std::atomic<int> n{0};
    rt.run([&] {
        TaskGroup g(rt);
        for (int i = 0; i < 200; ++i)
            g.run([&] { n.fetch_add(1); });
        // wait() on a worker thread must schedule, not block.
        g.wait();
    });
    EXPECT_EQ(n.load(), 200);
}

TEST(TaskGroup, GroupMayDieAsSoonAsWaitReturns)
{
    // Regression for the completion race: a finisher that dropped
    // pending_ to zero before it locked and notified the group let a
    // waiter return and destroy the group first, so the finisher
    // then locked and notified a dead mutex and condvar. Every group
    // here lives on its waiter's stack and dies the moment wait()
    // returns, after which that stack is reused (the next group, or
    // the worker's own scheduling loop). Waiters run on a worker
    // (inside rt.run), on external threads, and in the deleter of
    // submit handles dropped without a wait, all concurrently.
    auto &rt = sharedRuntime();
    constexpr int kBursts = 4000;
    constexpr int kGroupsPerBurst = 2;
    constexpr int kTasks = 32;
    constexpr int kExternalGroups = 2000;
    constexpr int kDroppedHandles = 2000;
    std::atomic<long> done{0};

    std::thread external([&] {
        for (int i = 0; i < kExternalGroups; ++i) {
            TaskGroup g(rt);
            spawnSpinners(g, kTasks, done);
            g.wait();
        }
    });
    std::thread dropper([&] {
        for (int i = 0; i < kDroppedHandles; ++i) {
            rt.submit([&done] {
                spinMicros(1.0);
                done.fetch_add(1, std::memory_order_relaxed);
            });
        }
    });
    for (int b = 0; b < kBursts; ++b) {
        rt.run([&] {
            for (int r = 0; r < kGroupsPerBurst; ++r) {
                TaskGroup g(rt);
                spawnSpinners(g, kTasks, done);
                g.wait();
            }
        });
    }
    external.join();
    dropper.join();

    EXPECT_EQ(done.load(),
              long{kBursts} * kGroupsPerBurst * kTasks
                  + long{kExternalGroups} * kTasks + kDroppedHandles);
}

TEST(SubmitHandle, WaitRethrowsOnceThenIsClean)
{
    auto &rt = sharedRuntime();
    runtime::SubmitHandle handle =
        rt.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(handle.wait(), std::runtime_error);
    // The error is consumed by the first rethrow: wait() stays
    // idempotent and later waits see a clean group.
    handle.wait();
    SUCCEED();
}

TEST(SubmitHandle, ConcurrentWaitersSeeExactlyOneException)
{
    auto &rt = sharedRuntime();
    runtime::SubmitHandle handle =
        rt.submit([] { throw std::runtime_error("boom"); });
    std::atomic<int> rethrown{0};
    std::vector<std::thread> waiters;
    for (int i = 0; i < 4; ++i) {
        waiters.emplace_back([handle, &rethrown]() mutable {
            try {
                handle.wait();
            } catch (const std::runtime_error &) {
                rethrown.fetch_add(1);
            }
        });
    }
    for (std::thread &t : waiters)
        t.join();
    // The error swap under the group mutex hands the exception to
    // exactly one waiter; the rest return clean.
    EXPECT_EQ(rethrown.load(), 1);
}

TEST(SubmitHandle, DroppingAfterExceptionCountsInsteadOfCrashing)
{
    auto &rt = sharedRuntime();
    const uint64_t before = rt.droppedHandleErrors();
    {
        runtime::SubmitHandle handle =
            rt.submit([] { throw std::runtime_error("boom"); });
        // Dropped without wait(): the release drain must swallow
        // the recorded exception (a deleter cannot throw)...
    }
    // ...but not silently — the swallow is counted, so a harness
    // that sheds handles can still assert nothing failed.
    EXPECT_EQ(rt.droppedHandleErrors(), before + 1);
    EXPECT_EQ(rt.stats().droppedHandleErrors, before + 1);

    // A waited handle consumes its error and adds nothing.
    runtime::SubmitHandle waited =
        rt.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(waited.wait(), std::runtime_error);
    waited = runtime::SubmitHandle();
    EXPECT_EQ(rt.droppedHandleErrors(), before + 1);
}
